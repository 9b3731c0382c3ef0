(* Unit and property tests for the util library: PRNG, vectors, heaps. *)

module Prng = Gcperf_util.Prng
module Vec = Gcperf_util.Vec
module Heapq = Gcperf_util.Heapq
module Bitset = Gcperf_util.Bitset

(* --- Prng ----------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Prng.bits64 a <> Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let c = Prng.split a in
  Alcotest.(check bool) "split stream differs" true
    (Prng.bits64 a <> Prng.bits64 c)

let test_prng_copy () =
  let a = Prng.create 9 in
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b)

let test_int_range () =
  let p = Prng.create 3 in
  for _ = 1 to 10_000 do
    let x = Prng.int p 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_float_range () =
  let p = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.float p 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_chance_extremes () =
  let p = Prng.create 6 in
  Alcotest.(check bool) "p=0 never" false (Prng.chance p 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.chance p 1.0)

let test_chance_rate () =
  let p = Prng.create 8 in
  let hits = ref 0 in
  for _ = 1 to 100_000 do
    if Prng.chance p 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 100_000.0 in
  Alcotest.(check bool) "about 30%" true (rate > 0.28 && rate < 0.32)

let test_exponential_mean () =
  let p = Prng.create 12 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.exponential p 10.0 in
    Alcotest.(check bool) "positive" true (x >= 0.0);
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 10" true (mean > 9.5 && mean < 10.5)

let test_gaussian_moments () =
  let p = Prng.create 13 in
  let n = 50_000 in
  let sum = ref 0.0 and sq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian p ~mean:5.0 ~stddev:2.0 in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean ~ 5" true (Float.abs (mean -. 5.0) < 0.1);
  Alcotest.(check bool) "var ~ 4" true (Float.abs (var -. 4.0) < 0.3)

let test_zipf_bounds () =
  let p = Prng.create 14 in
  for _ = 1 to 10_000 do
    let x = Prng.zipf p ~n:100 ~theta:0.99 in
    Alcotest.(check bool) "in [0,100)" true (x >= 0 && x < 100)
  done

let test_zipf_skew () =
  let p = Prng.create 15 in
  let counts = Array.make 100 0 in
  for _ = 1 to 50_000 do
    let x = Prng.zipf p ~n:100 ~theta:0.99 in
    counts.(x) <- counts.(x) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (counts.(0) > counts.(50));
  Alcotest.(check bool) "heavily skewed" true
    (float_of_int counts.(0) > 10.0 *. float_of_int (max 1 counts.(99)))

let test_zipf_single () =
  let p = Prng.create 16 in
  Alcotest.(check int) "n=1 -> 0" 0 (Prng.zipf p ~n:1 ~theta:0.99)

(* --- Vec ------------------------------------------------------------ *)

let test_vec_push_pop () =
  let v = Vec.create () in
  Alcotest.(check bool) "fresh empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "top" 99 (Vec.top v);
  for i = 99 downto 0 do
    Alcotest.(check int) "pop order" i (Vec.pop v)
  done;
  Alcotest.(check bool) "empty again" true (Vec.is_empty v)

let test_vec_get_set () =
  let v = Vec.make 5 0 in
  Vec.set v 2 42;
  Alcotest.(check int) "set/get" 42 (Vec.get v 2);
  Alcotest.check_raises "oob get" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 5))

let test_vec_swap_remove () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  let removed = Vec.swap_remove v 1 in
  Alcotest.(check int) "removed" 2 removed;
  Alcotest.(check (list int)) "last moved in" [ 1; 4; 3 ] (Vec.to_list v)

let test_vec_fold_iter () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "fold sum" 6 (Vec.fold ( + ) 0 v);
  let acc = ref [] in
  Vec.iter (fun x -> acc := x :: !acc) v;
  Alcotest.(check (list int)) "iter" [ 1; 2; 3 ] (List.rev !acc)

let test_vec_clear_retains () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 9;
  Alcotest.(check int) "reusable" 9 (Vec.get v 0)

let prop_vec_model =
  (* A vector fed by pushes and pops behaves like a list used as a stack. *)
  QCheck.Test.make ~name:"vec models a stack" ~count:300
    QCheck.(list (option small_int))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Some x ->
              Vec.push v x;
              model := x :: !model
          | None -> (
              match !model with
              | [] -> ()
              | hd :: tl ->
                  model := tl;
                  assert (Vec.pop v = hd)))
        ops;
      List.rev !model = Vec.to_list v)

(* --- Int_vec -------------------------------------------------------- *)

module Ivec = Gcperf_util.Int_vec

let test_int_vec_basics () =
  let v = Ivec.create () in
  Alcotest.(check bool) "fresh empty" true (Ivec.is_empty v);
  for i = 0 to 99 do
    Ivec.push v i
  done;
  Alcotest.(check int) "length" 100 (Ivec.length v);
  Ivec.set v 2 42;
  Alcotest.(check int) "set/get" 42 (Ivec.get v 2);
  Alcotest.check_raises "oob get"
    (Invalid_argument "Int_vec: index out of bounds") (fun () ->
      ignore (Ivec.get v 100));
  for i = 99 downto 3 do
    Alcotest.(check int) "pop order" i (Ivec.pop v)
  done;
  Ivec.clear v;
  Alcotest.(check bool) "empty after clear" true (Ivec.is_empty v)

let test_int_vec_swap_remove () =
  let v = Ivec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "removed" 2 (Ivec.swap_remove v 1);
  Alcotest.(check (list int)) "last moved in" [ 1; 4; 3 ] (Ivec.to_list v)

let test_int_vec_filter_in_place () =
  let v = Ivec.of_list [ 1; 2; 3; 4; 5; 6 ] in
  Ivec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (list int)) "evens, order kept" [ 2; 4; 6 ] (Ivec.to_list v)

let prop_int_vec_matches_vec =
  (* The monomorphic twin must behave exactly like the generic [Vec] it
     replaces on hot paths. *)
  QCheck.Test.make ~name:"int_vec matches generic vec" ~count:300
    QCheck.(list (option small_int))
    (fun ops ->
      let iv = Ivec.create () and v = Vec.create () in
      List.iter
        (fun op ->
          match op with
          | Some x ->
              Ivec.push iv x;
              Vec.push v x
          | None ->
              if not (Vec.is_empty v) then assert (Ivec.pop iv = Vec.pop v))
        ops;
      Ivec.to_list iv = Vec.to_list v)

(* --- Int_table ------------------------------------------------------ *)

module Itbl = Gcperf_util.Int_table

let test_int_table_hash () =
  (* [hash_int] must agree with [Hashtbl.hash] bit-for-bit: the simulator
     relies on it to reproduce [Hashtbl]'s bucket assignment (and hence
     root-set iteration order).  Sweep representative and adversarial
     values, including the sign-handling edge cases. *)
  let check d =
    Alcotest.(check int)
      (Printf.sprintf "hash %d" d)
      (Hashtbl.hash d) (Itbl.hash_int d)
  in
  List.iter check
    [
      0; 1; -1; 2; 42; 1000; -1000; 123456789; -123456789; max_int; min_int;
      max_int - 1; min_int + 1; 0x3FFFFFFF; -0x40000000; 1 lsl 32;
      -(1 lsl 32); (1 lsl 62) - 1;
    ];
  let p = Prng.create 77 in
  for _ = 1 to 10_000 do
    check (Int64.to_int (Prng.bits64 p))
  done

let prop_int_table_order =
  (* Iteration-order fidelity against a real [(int, unit) Hashtbl.t]:
     identical operation sequences must leave identical iteration orders
     (which subsumes membership and size), across resizes and resets.
     The creation sizes are the three the simulator uses (remsets 16,
     root sets 64, cards 256); keys up to 5000 and up to 3000 operations
     grow even a 256-bucket table through resizes.  Operation 4 is G1's
     remset prune: collect keys during [iter], then remove them. *)
  QCheck.Test.make ~name:"int_table matches Hashtbl iteration order"
    ~count:200
    QCheck.(
      pair (oneofl [ 16; 64; 256 ])
        (list_of_size (Gen.int_range 0 3000)
           (pair (int_range 0 5) (int_range 0 5000))))
    (fun (size, ops) ->
      let t = Itbl.create size in
      let h : (int, unit) Hashtbl.t = Hashtbl.create size in
      let mem_agrees = ref true in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
              Itbl.add t k;
              Hashtbl.add h k ()
          | 1 | 5 ->
              Itbl.replace t k;
              Hashtbl.replace h k ()
          | 2 ->
              Itbl.remove t k;
              Hashtbl.remove h k
          | 3 ->
              if Itbl.mem t k <> Hashtbl.mem h k then mem_agrees := false
          | _ ->
              if k mod 50 = 0 then begin
                let stale iter =
                  let acc = ref [] in
                  iter (fun x -> if x mod 3 = 0 then acc := x :: !acc);
                  !acc
                in
                List.iter (Itbl.remove t) (stale (fun f -> Itbl.iter f t));
                List.iter (Hashtbl.remove h)
                  (stale (fun f -> Hashtbl.iter (fun x () -> f x) h))
              end
              else if k < 3 then begin
                (* occasional reset exercises the initial-buckets path *)
                Itbl.reset t;
                Hashtbl.reset h
              end)
        ops;
      let order tbl_iter =
        let acc = ref [] in
        tbl_iter (fun k -> acc := k :: !acc);
        List.rev !acc
      in
      !mem_agrees
      && Itbl.length t = Hashtbl.length h
      && order (fun f -> Itbl.iter f t)
         = order (fun f -> Hashtbl.iter (fun k () -> f k) h))

let test_int_table_size () =
  (* A region heap holds one remset per region, mostly empty: an empty
     table must cost no more host words than the [Hashtbl] it stands in
     for, at each creation size the simulator uses. *)
  List.iter
    (fun n ->
      let words x = Obj.reachable_words (Obj.repr x) in
      let itbl = words (Itbl.create n)
      and htbl = words (Hashtbl.create n : (int, unit) Hashtbl.t) in
      if itbl > htbl then
        Alcotest.failf "create %d: %d words, Hashtbl %d" n itbl htbl)
    [ 16; 64; 256 ]

(* --- Heapq ---------------------------------------------------------- *)

let test_heapq_ordering () =
  let q = Heapq.create () in
  List.iter (fun k -> Heapq.push q k k) [ 5; 1; 4; 1; 3; 9; 0 ];
  let out = ref [] in
  let rec drain () =
    match Heapq.pop q with
    | None -> ()
    | Some (k, _) ->
        out := k :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (List.rev !out)

let test_heapq_min_key () =
  let q = Heapq.create () in
  Alcotest.(check (option int)) "empty" None (Heapq.min_key q);
  Heapq.push q 4 ();
  Heapq.push q 2 ();
  Alcotest.(check (option int)) "min" (Some 2) (Heapq.min_key q)

let prop_heapq_sorted =
  QCheck.Test.make ~name:"heapq drains sorted" ~count:300
    QCheck.(list small_int)
    (fun keys ->
      let q = Heapq.create () in
      List.iter (fun k -> Heapq.push q k ()) keys;
      let rec drain acc =
        match Heapq.pop q with
        | None -> List.rev acc
        | Some (k, ()) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* The swap heap [Heapq] used before its struct-of-arrays rewrite, kept
   as the reference model: boxed entries in a [Vec], sifts that swap.  The
   event loops' tie order is this heap's array layout, so the rewrite
   must reproduce the layout, not just the key order. *)
module Swap_heap = struct
  type 'a entry = { key : int; payload : 'a }

  let swap q i j =
    let a = Vec.get q i and b = Vec.get q j in
    Vec.set q i b;
    Vec.set q j a

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if (Vec.get q i).key < (Vec.get q parent).key then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let n = Vec.length q in
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < n && (Vec.get q l).key < (Vec.get q !smallest).key then smallest := l;
    if r < n && (Vec.get q r).key < (Vec.get q !smallest).key then smallest := r;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let push q key payload =
    Vec.push q { key; payload };
    sift_up q (Vec.length q - 1)

  let pop q =
    if Vec.is_empty q then None
    else begin
      let e = Vec.get q 0 in
      let last = Vec.pop q in
      if not (Vec.is_empty q) then begin
        Vec.set q 0 last;
        sift_down q 0
      end;
      Some (e.key, e.payload)
    end
end

(* Random interleavings of push ([Some key]) and pop ([None]) with keys
   from a four-value range, so most keys tie; payloads are made from the
   push index, so every entry is distinguishable.  After each operation
   the popped entry and the layout seen by [iter] must match the model. *)
let heapq_swap_layout ~name payload_of =
  QCheck.Test.make ~name ~count:500
    QCheck.(list_of_size Gen.(0 -- 400) (option (int_range 0 3)))
    (fun ops ->
      let q = Heapq.create () and model = Vec.create () in
      let layout () =
        let acc = ref [] in
        Heapq.iter (fun k p -> acc := (k, p) :: !acc) q;
        List.rev !acc
      in
      let model_layout () =
        Vec.fold (fun acc e -> (e.Swap_heap.key, e.Swap_heap.payload) :: acc)
          [] model
        |> List.rev
      in
      let same = ref true in
      List.iteri
        (fun i op ->
          (match op with
          | Some key ->
              Heapq.push q key (payload_of i);
              Swap_heap.push model key (payload_of i)
          | None -> if Heapq.pop q <> Swap_heap.pop model then same := false);
          if layout () <> model_layout () then same := false)
        ops;
      let rec drain () =
        match (Heapq.pop q, Swap_heap.pop model) with
        | None, None -> ()
        | a, b ->
            if a <> b then same := false;
            drain ()
      in
      drain ();
      !same && Heapq.is_empty q)

let prop_heapq_swap_layout =
  heapq_swap_layout ~name:"heapq layout equals the swap heap" Fun.id

(* Boxed variant payloads, the shape of the [Coordinator] and
   [Resilient] event types: the sift moves pointers, not immediates. *)
type event = Arrive of int | Reply of { id : int; at_s : float }

let prop_heapq_swap_layout_boxed =
  heapq_swap_layout ~name:"heapq layout equals the swap heap, boxed payloads"
    (fun i ->
      if i mod 2 = 0 then Arrive i
      else Reply { id = i; at_s = float_of_int i /. 3.0 })

(* --- Bitset --------------------------------------------------------- *)

let test_bitset_basic () =
  let b = Bitset.create () in
  Alcotest.(check bool) "initially absent" false (Bitset.mem b 3);
  Bitset.set b 3;
  Alcotest.(check bool) "present after set" true (Bitset.mem b 3);
  Alcotest.(check bool) "neighbours unaffected" false
    (Bitset.mem b 2 || Bitset.mem b 4);
  Bitset.clear b 3;
  Alcotest.(check bool) "absent after clear" false (Bitset.mem b 3);
  (* Clearing beyond capacity is a no-op, not an error. *)
  Bitset.clear b 1_000_000

let test_bitset_growth () =
  let b = Bitset.create ~capacity:8 () in
  Bitset.set b 7;
  Bitset.set b 4097;
  Alcotest.(check bool) "low bit kept across growth" true (Bitset.mem b 7);
  Alcotest.(check bool) "high bit present" true (Bitset.mem b 4097);
  Alcotest.(check bool) "beyond capacity is false" false (Bitset.mem b 100_000);
  Alcotest.(check bool) "capacity grew" true (Bitset.capacity b > 4097)

let test_bitset_reset () =
  let b = Bitset.create () in
  List.iter (Bitset.set b) [ 0; 31; 32; 63; 64; 1000 ];
  Bitset.reset b;
  Alcotest.(check bool) "all cleared" false
    (List.exists (Bitset.mem b) [ 0; 31; 32; 63; 64; 1000 ])

let test_bitset_negative () =
  let b = Bitset.create () in
  Alcotest.check_raises "negative mem"
    (Invalid_argument "Bitset: negative index") (fun () ->
      ignore (Bitset.mem b (-1)))

let prop_bitset_model =
  (* Against a Hashtbl model: same membership after arbitrary set/clear
     interleavings, including indices around word boundaries. *)
  QCheck.Test.make ~name:"bitset matches set model" ~count:300
    QCheck.(list (pair bool (int_range 0 200)))
    (fun ops ->
      let b = Bitset.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.set b i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.clear b i;
            Hashtbl.remove model i
          end)
        ops;
      List.for_all (fun i -> Bitset.mem b i = Hashtbl.mem model i)
        (List.init 201 Fun.id))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_prng_copy;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
          Alcotest.test_case "chance rate" `Quick test_chance_rate;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf single" `Quick test_zipf_single;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "get/set" `Quick test_vec_get_set;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "fold/iter" `Quick test_vec_fold_iter;
          Alcotest.test_case "clear retains capacity" `Quick test_vec_clear_retains;
          QCheck_alcotest.to_alcotest prop_vec_model;
        ] );
      ( "int_vec",
        [
          Alcotest.test_case "basics" `Quick test_int_vec_basics;
          Alcotest.test_case "swap_remove" `Quick test_int_vec_swap_remove;
          Alcotest.test_case "filter_in_place" `Quick
            test_int_vec_filter_in_place;
          QCheck_alcotest.to_alcotest prop_int_vec_matches_vec;
        ] );
      ( "int_table",
        [
          Alcotest.test_case "hash_int = Hashtbl.hash" `Quick
            test_int_table_hash;
          QCheck_alcotest.to_alcotest prop_int_table_order;
          Alcotest.test_case "empty table no larger than Hashtbl" `Quick
            test_int_table_size;
        ] );
      ( "heapq",
        [
          Alcotest.test_case "ordering" `Quick test_heapq_ordering;
          Alcotest.test_case "min_key" `Quick test_heapq_min_key;
          QCheck_alcotest.to_alcotest prop_heapq_sorted;
          QCheck_alcotest.to_alcotest prop_heapq_swap_layout;
          QCheck_alcotest.to_alcotest prop_heapq_swap_layout_boxed;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "set/mem/clear" `Quick test_bitset_basic;
          Alcotest.test_case "growth" `Quick test_bitset_growth;
          Alcotest.test_case "reset" `Quick test_bitset_reset;
          Alcotest.test_case "negative index" `Quick test_bitset_negative;
          QCheck_alcotest.to_alcotest prop_bitset_model;
        ] );
    ]
