type t = {
  label : string;
  run_divisor : int;
  time_divisor : int;
  rate_divisor : int;
  grid_points : int option;
}

let full =
  {
    label = "full";
    run_divisor = 1;
    time_divisor = 1;
    rate_divisor = 1;
    grid_points = None;
  }

let bench =
  {
    label = "bench";
    run_divisor = 2;
    time_divisor = 4;
    rate_divisor = 2;
    grid_points = Some 3;
  }

let ci =
  {
    label = "ci";
    run_divisor = 4;
    time_divisor = 10;
    rate_divisor = 4;
    grid_points = Some 1;
  }

let to_string t = t.label

let of_string = function
  | "ci" -> Some ci
  | "bench" -> Some bench
  | "full" -> Some full
  | _ -> None

let scaled t n = max 1 (n / t.run_divisor)

let grid t l =
  match t.grid_points with
  | None -> l
  | Some n -> List.filteri (fun i _ -> i < n) l

let hours t h = h /. float_of_int t.time_divisor

let bytes t n = n / t.time_divisor

let rate t r = r /. float_of_int t.rate_divisor
