module Gateway = Gcperf_kvstore.Gateway
module Profile = Gcperf_fault.Profile

module Resilience = struct
  type t =
    | Off
    | Paper_defaults
    | Custom of Resilient.resilience * Gateway.config

  let client = function
    | Off -> Resilient.none
    | Paper_defaults -> Resilient.paper_defaults
    | Custom (r, _) -> r

  let gateway = function
    | Off -> Gateway.unbounded
    | Paper_defaults -> Gateway.degraded
    | Custom (_, g) -> g
end

type source = {
  pauses : (float * float) array;
  db_timeline : (float * int) array;
}

let run ?(resilience = Resilience.Off) ?(profile = Profile.none)
    ?collector:_ workload source ~seed =
  Resilient.run workload ~profile
    ~resilience:(Resilience.client resilience)
    ~gateway:(Resilience.gateway resilience)
    ~pauses:source.pauses ~db_timeline:source.db_timeline ~seed

let points workload source ~seed =
  Client.run workload ~pauses:source.pauses ~db_timeline:source.db_timeline
    ~seed
