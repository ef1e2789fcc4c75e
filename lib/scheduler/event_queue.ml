type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

(* Strict heap order: earlier time first, insertion order breaking
   ties. The tie-break is what makes the whole simulator deterministic:
   simultaneous events (a kill and an arrival at the same instant) are
   always processed in the order they were scheduled. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap h i j =
  let tmp = h.(i) in
  h.(i) <- h.(j);
  h.(j) <- tmp

let push q ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.push: time must be finite";
  let e = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.size = Array.length q.heap then begin
    let cap = max 8 (2 * q.size) in
    let heap = Array.make cap e in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end;
  q.heap.(q.size) <- e;
  q.size <- q.size + 1;
  let i = ref (q.size - 1) in
  while !i > 0 && before q.heap.(!i) q.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    swap q.heap !i parent;
    i := parent
  done

let pop q =
  if q.size = 0 then None
  else begin
    let root = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < q.size && before q.heap.(l) q.heap.(!best) then best := l;
        if r < q.size && before q.heap.(r) q.heap.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          swap q.heap !i !best;
          i := !best
        end
      done
    end;
    Some (root.time, root.payload)
  end
