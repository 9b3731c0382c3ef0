(* 32 bits per word: shifts instead of division, and no flirting with
   OCaml's 63-bit int when computing masks. *)

let bits_per_word = 32
let word_of i = i lsr 5
let mask_of i = 1 lsl (i land 31)

type t = { mutable words : int array }

let create ?(capacity = 256) () =
  let n = (capacity + bits_per_word - 1) / bits_per_word in
  { words = Array.make (Int.max 1 n) 0 }

let check i = if i < 0 then invalid_arg "Bitset: negative index"

let capacity t = Array.length t.words * bits_per_word

let mem t i =
  check i;
  let w = word_of i in
  w < Array.length t.words && t.words.(w) land mask_of i <> 0

let grow t needed_words =
  let cap = Array.length t.words in
  let ncap = ref (Int.max 1 cap) in
  while !ncap < needed_words do
    ncap := !ncap * 2
  done;
  let nw = Array.make !ncap 0 in
  Array.blit t.words 0 nw 0 cap;
  t.words <- nw

let set t i =
  check i;
  let w = word_of i in
  if w >= Array.length t.words then grow t (w + 1);
  t.words.(w) <- t.words.(w) lor mask_of i

let clear t i =
  check i;
  let w = word_of i in
  if w < Array.length t.words then t.words.(w) <- t.words.(w) land lnot (mask_of i)

let reset t = Array.fill t.words 0 (Array.length t.words) 0

(* Trailing-zero count via de Bruijn multiplication: branch-free lowest
   set bit for a 32-bit word, no hardware ctz needed. *)
let debruijn = 0x077CB531

let tz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.(((debruijn lsl i) land 0xFFFFFFFF) lsr 27) <- i
  done;
  t

let[@inline] lowest_bit w =
  tz_table.((((w land -w) * debruijn) land 0xFFFFFFFF) lsr 27)

let next_set t i =
  check i;
  let nwords = Array.length t.words in
  let w = ref (word_of i) in
  if !w >= nwords then -1
  else begin
    (* mask off bits below [i] in the first word *)
    let first = t.words.(!w) land lnot (mask_of i - 1) in
    if first <> 0 then (!w * bits_per_word) + lowest_bit first
    else begin
      incr w;
      while !w < nwords && t.words.(!w) = 0 do
        incr w
      done;
      if !w >= nwords then -1
      else (!w * bits_per_word) + lowest_bit t.words.(!w)
    end
  end
