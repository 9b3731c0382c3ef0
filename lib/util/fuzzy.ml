(* Two-row Levenshtein; candidate sets here are a handful of short names,
   so clarity beats cleverness. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <-
          Int.min
            (Int.min (cur.(j - 1) + 1) (prev.(j) + 1))
            (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

(* Candidates close to the input — small edit distance (at most half the
   input length) or containing it as a substring — best first, at most
   three.  Case-insensitive. *)
let suggest ~candidates input =
  let input_l = String.lowercase_ascii input in
  let scored =
    List.filter_map
      (fun c ->
        let cl = String.lowercase_ascii c in
        let d = edit_distance input_l cl in
        (* Accept near-misses and prefix/substring matches ("tab" for
           "table2"); reject anything further than half the input away. *)
        let near = d <= Int.max 1 (String.length input_l / 2) in
        let contains =
          String.length input_l >= 2
          &&
          let rec at i =
            i + String.length input_l <= String.length cl
            && (String.sub cl i (String.length input_l) = input_l || at (i + 1))
          in
          at 0
        in
        if near || contains then Some (d, c) else None)
      candidates
  in
  (* Distance, then name: the order a generic [compare] on the pairs
     gives, spelled out so no generic-compare call is linked in. *)
  List.sort
    (fun (d1, c1) (d2, c2) ->
      if d1 <> d2 then Int.compare d1 d2 else String.compare c1 c2)
    scored
  |> List.filteri (fun i _ -> i < 3)
  |> List.map snd

let did_you_mean ~candidates input =
  match suggest ~candidates input with
  | [] -> ""
  | s -> Printf.sprintf " (did you mean %s?)" (String.concat ", " s)
