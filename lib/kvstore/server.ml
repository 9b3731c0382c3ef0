module Vec = Gcperf_util.Vec
module Ivec = Gcperf_util.Int_vec
module Prng = Gcperf_util.Prng
module Vm = Gcperf_runtime.Vm
module Os = Gcperf_heap.Obj_store

type config = {
  record_bytes : int;
  write_transient_bytes : int;
  memtable_flush_bytes : int;
  service_threads : int;
}

let mb n = n * 1024 * 1024

let default_config =
  {
    record_bytes = 20 * 1024;
    write_transient_bytes = 8 * 1024;
    memtable_flush_bytes = mb 16384;
    service_threads = 24;
  }

(* Allocation per read: short-lived deserialisation buffers. *)
let read_transient_bytes = 96 * 1024

(* Key popularity skew of updates, as in YCSB. *)
let zipf_theta = 0.99

(* Records per memtable index object, and the size of one
   memtable/row-cache index object. *)
let index_fanout = 64
let index_bytes = 192 * 1024

let stress_config ~heap_bytes =
  { default_config with memtable_flush_bytes = heap_bytes }

type op = Read | Update | Insert

type t = {
  vm : Vm.t;
  config : config;
  prng : Prng.t;
  threads : Vm.thread array;
  (* Dense key columns: key [k]'s record and index ids, -1 when absent.
     Keys are minted in order by [next_key] and updates draw below it, so
     the columns never hold more than [next_key] entries. *)
  key_record : Ivec.t;
  key_index : Ivec.t;
  mutable next_key : int;
  indexes : Ivec.t;  (* memtable index objects of the current epoch *)
  mutable current_index : int;  (* index object receiving new records *)
  mutable current_index_fill : int;
  commitlog_segments : Ivec.t;
  mutable commitlog_fill : int;  (* bytes in the current segment *)
  mutable memtable : int;  (* bytes *)
  mutable commitlog : int;  (* bytes *)
  mutable flush_count : int;
  mutable op_count : int;
  timeline : (float * int) Vec.t;
}

let commitlog_segment_bytes = mb 8

let fresh_index ?(old = false) t =
  let id =
    if old then
      Vm.alloc_old_global t.vm ~size:index_bytes ~lifetime:`Permanent
    else
      Vm.alloc_global t.vm ~size:index_bytes ~lifetime:`Permanent
  in
  Ivec.push t.indexes id;
  t.current_index <- id;
  t.current_index_fill <- 0;
  id

let create vm config ~seed =
  let threads =
    Array.init (max 1 config.service_threads) (fun _ -> Vm.spawn_thread vm)
  in
  let t =
    {
      vm;
      config;
      prng = Prng.create seed;
      threads;
      key_record = Ivec.create ();
      key_index = Ivec.create ();
      next_key = 0;
      indexes = Ivec.create ();
      current_index = -1;
      current_index_fill = 0;
      commitlog_segments = Ivec.create ();
      commitlog_fill = commitlog_segment_bytes;
      memtable = 0;
      commitlog = 0;
      flush_count = 0;
      op_count = 0;
      timeline = Vec.create ();
    }
  in
  ignore (fresh_index t);
  t

let memtable_bytes t = t.memtable
let commitlog_bytes t = t.commitlog
let flushes t = t.flush_count
let operations t = t.op_count
let db_size_timeline t = Vec.to_array t.timeline

let store t = (Vm.collector t.vm).Gcperf_gc.Collector.store

(* Flush: everything the memtable and commit log kept alive becomes
   garbage at once — records, index objects and log segments. *)
let flush t =
  t.flush_count <- t.flush_count + 1;
  let st = store t in
  Ivec.iter
    (fun idx ->
      if Os.is_live st idx then Os.clear_refs st idx;
      Vm.drop_global_root t.vm idx)
    t.indexes;
  Ivec.clear t.indexes;
  Ivec.iter (fun seg -> Vm.drop_global_root t.vm seg) t.commitlog_segments;
  Ivec.clear t.commitlog_segments;
  Ivec.clear t.key_record;
  Ivec.clear t.key_index;
  t.memtable <- 0;
  t.commitlog <- 0;
  t.commitlog_fill <- commitlog_segment_bytes;
  ignore (fresh_index t)

let set_key t key ~record ~index =
  let n = Ivec.length t.key_record in
  if key < n then begin
    Ivec.set t.key_record key record;
    Ivec.set t.key_index key index
  end
  else begin
    for _ = n to key - 1 do
      Ivec.push t.key_record (-1);
      Ivec.push t.key_index (-1)
    done;
    Ivec.push t.key_record record;
    Ivec.push t.key_index index
  end

let commitlog_append t thread bytes =
  t.commitlog <- t.commitlog + bytes;
  t.commitlog_fill <- t.commitlog_fill + bytes;
  if t.commitlog_fill >= commitlog_segment_bytes then begin
    t.commitlog_fill <- 0;
    let seg =
      Vm.alloc t.vm thread ~size:commitlog_segment_bytes ~lifetime:`Permanent
    in
    Vm.global_root t.vm seg;
    Vm.drop_root t.vm thread seg;
    Ivec.push t.commitlog_segments seg
  end

(* Replay installs straight into the old generation: commit-log replay
   rebuilds the cache in bulk through slab allocation, without the young
   generation churn of the regular write path. *)
let install_record_old t key =
  let record =
    Vm.alloc_old_global t.vm ~size:t.config.record_bytes ~lifetime:`Permanent
  in
  if t.current_index_fill >= index_fanout then
    ignore (fresh_index ~old:true t);
  let index = t.current_index in
  Vm.add_ref t.vm ~parent:index ~child:record;
  t.current_index_fill <- t.current_index_fill + 1;
  Vm.drop_global_root t.vm record;
  set_key t key ~record ~index;
  t.memtable <- t.memtable + t.config.record_bytes;
  t.commitlog <- t.commitlog + t.config.record_bytes

let install_record t thread key =
  (* Serialisation/validation buffers of the write path die young. *)
  if t.config.write_transient_bytes > 0 then
    ignore
      (Vm.alloc t.vm thread ~size:t.config.write_transient_bytes
         ~lifetime:(`Bytes (t.config.write_transient_bytes * 4)));
  let record =
    Vm.alloc t.vm thread ~size:t.config.record_bytes ~lifetime:`Permanent
  in
  (* The record is kept alive by the memtable index, not by a root: this
     is what makes overwritten records collectable and what creates the
     old-to-young reference traffic of a real memtable. *)
  if t.current_index_fill >= index_fanout then ignore (fresh_index t);
  let index = t.current_index in
  Vm.add_ref t.vm ~parent:index ~child:record;
  t.current_index_fill <- t.current_index_fill + 1;
  Vm.drop_root t.vm thread record;
  if key < Ivec.length t.key_record && Ivec.get t.key_record key >= 0 then begin
    (* Overwrite: sever the memtable's reference to the old version. *)
    let old_index = Ivec.get t.key_index key in
    if Os.is_live (store t) old_index then
      Vm.remove_ref t.vm ~parent:old_index ~child:(Ivec.get t.key_record key);
    t.memtable <- t.memtable - t.config.record_bytes
  end;
  set_key t key ~record ~index;
  t.memtable <- t.memtable + t.config.record_bytes;
  commitlog_append t thread t.config.record_bytes;
  if t.memtable + t.commitlog >= t.config.memtable_flush_bytes then flush t

let perform_on t thread = function
  | Read ->
      ignore
        (Vm.alloc t.vm thread ~size:read_transient_bytes
           ~lifetime:(`Bytes (read_transient_bytes * 4)))
  | Update ->
      let key =
        if t.next_key = 0 then 0
        else Prng.zipf t.prng ~n:t.next_key ~theta:zipf_theta
      in
      if t.next_key = 0 then t.next_key <- 1;
      install_record t thread key
  | Insert ->
      let key = t.next_key in
      t.next_key <- t.next_key + 1;
      install_record t thread key

let perform t op =
  t.op_count <- t.op_count + 1;
  perform_on t t.threads.(t.op_count mod Array.length t.threads) op

let quantum_us = 50_000.0

let replay_commitlog t ~target_bytes =
  (* Replaying is a bulk re-execution of logged writes: roughly 60 MB/s
     of record installation, landing directly in the old generation. *)
  let replay_rate = 60.0 *. 1024.0 *. 1024.0 in
  let per_quantum =
    int_of_float (replay_rate *. (quantum_us /. 1e6))
    / t.config.record_bytes
  in
  while t.memtable < target_bytes do
    Vm.step t.vm ~dt_us:quantum_us (fun th ->
        if th.Vm.tid = t.threads.(0).Vm.tid then
          for _ = 1 to max 1 per_quantum do
            if t.memtable < target_bytes then begin
              t.op_count <- t.op_count + 1;
              let key = t.next_key in
              t.next_key <- t.next_key + 1;
              install_record_old t key
            end
          done)
  done

let run t ~duration_s ~ops_per_s ~read_frac ~insert_frac =
  let stop = Vm.now_s t.vm +. duration_s in
  let carry = ref 0.0 in
  while Vm.now_s t.vm < stop do
    carry := !carry +. (ops_per_s *. (quantum_us /. 1e6));
    let ops = int_of_float !carry in
    carry := !carry -. float_of_int ops;
    let n_threads = Array.length t.threads in
    let per_thread = (ops + n_threads - 1) / n_threads in
    let issued = ref 0 in
    Vm.step t.vm ~dt_us:quantum_us (fun th ->
        let is_service =
          Array.exists (fun s -> s.Vm.tid = th.Vm.tid) t.threads
        in
        if is_service then
          for _ = 1 to per_thread do
            if !issued < ops then begin
              incr issued;
              t.op_count <- t.op_count + 1;
              let u = Prng.float t.prng 1.0 in
              let op =
                if u < read_frac then Read
                else if u < read_frac +. insert_frac then Insert
                else Update
              in
              perform_on t th op
            end
          done);
    Vec.push t.timeline (Vm.now_s t.vm, t.memtable + t.commitlog)
  done
