type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  mutable dummy : 'a option; (* fill value for growth, captured on first push *)
}

let create ?(capacity = 8) () =
  ignore capacity;
  { data = [||]; len = 0; dummy = None }

let make n x = { data = Array.make (Int.max n 1) x; len = n; dummy = Some x }

let[@inline] length v = v.len

let[@inline] is_empty v = v.len = 0

let[@inline] check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let[@inline] get v i =
  check v i;
  v.data.(i)

let[@inline] set v i x =
  check v i;
  v.data.(i) <- x

let[@inline never] grow v x =
  let cap = Array.length v.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let nd = Array.make ncap x in
  Array.blit v.data 0 nd 0 v.len;
  v.data <- nd

let[@inline] push v x =
  (* physical match, not [v.dummy = None]: a structural compare here would
     put a C call on every push in the simulator's hottest loops *)
  (match v.dummy with None -> v.dummy <- Some x | Some _ -> ());
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let[@inline] pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let[@inline] top v =
  if v.len = 0 then invalid_arg "Vec.top: empty";
  v.data.(v.len - 1)

let[@inline] clear v = v.len <- 0

let swap_remove v i =
  check v i;
  let x = v.data.(i) in
  v.len <- v.len - 1;
  v.data.(i) <- v.data.(v.len);
  x

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_array v = Array.sub v.data 0 v.len

let to_list v = Array.to_list (to_array v)

let of_list l =
  let v = create () in
  List.iter (push v) l;
  v
