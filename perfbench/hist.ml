(* Exact latency distribution at nanosecond resolution: one counter per
   nanosecond below [limit], exact values above it in a side array.
   Recording is one array increment, so a timed loop neither allocates
   (until the rare overflow array grows) nor sorts. *)

let limit = 1 lsl 20 (* ~1.05 ms: above every healthy round trip *)

type t = {
  cells : int array;
  mutable over : int array;
  mutable n_over : int;
  mutable n : int;
}

let create () =
  { cells = Array.make limit 0; over = Array.make 256 0; n_over = 0; n = 0 }

let record h v =
  let v = if v < 0 then 0 else v in
  h.n <- h.n + 1;
  if v < limit then Array.unsafe_set h.cells v (Array.unsafe_get h.cells v + 1)
  else begin
    if h.n_over = Array.length h.over then begin
      let a = Array.make (2 * h.n_over) 0 in
      Array.blit h.over 0 a 0 h.n_over;
      h.over <- a
    end;
    h.over.(h.n_over) <- v;
    h.n_over <- h.n_over + 1
  end

let count h = h.n

(* Nearest-rank percentile [q] in (0, 1], in ns; 0 when empty. *)
let pct_ns h q =
  if h.n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float h.n))) in
    let below = h.n - h.n_over in
    if rank > below then begin
      let over = Array.sub h.over 0 h.n_over in
      Array.sort (fun (a : int) b -> compare a b) over;
      over.(rank - below - 1)
    end
    else begin
      let acc = ref 0 and i = ref (-1) in
      while !acc < rank do
        incr i;
        acc := !acc + h.cells.(!i)
      done;
      !i
    end
  end

(* Percentile of a plain sample array (small arrays: set-up times). *)
let pct_of_array (a : int array) q =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let s = Array.copy a in
    Array.sort (fun (x : int) y -> compare x y) s;
    s.(max 0 (int_of_float (Float.ceil (q *. float n)) - 1))
  end
