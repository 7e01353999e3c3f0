type counter = { mutable count : int }

type histogram = {
  mutable h_count : int;
  mutable h_sum : int;
  buckets : int array;  (* index i >= 1 covers [2^(i-1), 2^i); index 0 is value 0 *)
}

type gauge = {
  mutable g_count : int;
  mutable g_sum : int;
  mutable g_min : int;
  mutable g_max : int;
  mutable g_last : int;
}

type metric =
  | Counter of counter
  | Histogram of histogram
  | Gauge of gauge

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let register t name make wrong =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
    match wrong m with
    | Some h -> h
    | None -> invalid_arg (Printf.sprintf "Metrics: %s already bound to another kind" name))
  | None ->
    let m, h = make () in
    Hashtbl.add t.tbl name m;
    h

let counter t name =
  register t name
    (fun () ->
      let c = { count = 0 } in
      (Counter c, c))
    (function Counter c -> Some c | Histogram _ | Gauge _ -> None)

let incr ?(by = 1) c = c.count <- c.count + by
let set_counter c v = c.count <- v
let counter_value c = c.count

(* 63 buckets cover every non-negative OCaml int. *)
let bucket_count = 63

let histogram t name =
  register t name
    (fun () ->
      let h = { h_count = 0; h_sum = 0; buckets = Array.make bucket_count 0 } in
      (Histogram h, h))
    (function Histogram h -> Some h | Counter _ | Gauge _ -> None)

let bucket_index v =
  if v <= 0 then 0
  else begin
    let i = ref 0 in
    let v = ref v in
    while !v > 0 do
      i := !i + 1;
      v := !v lsr 1
    done;
    !i (* values in [2^(i-1), 2^i) have exactly i significant bits *)
  end

let bucket_floor i = if i = 0 then 0 else 1 lsl (i - 1)

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  let i = Int.min (bucket_index v) (bucket_count - 1) in
  h.buckets.(i) <- h.buckets.(i) + 1

let gauge t name =
  register t name
    (fun () ->
      let g = { g_count = 0; g_sum = 0; g_min = max_int; g_max = min_int; g_last = 0 } in
      (Gauge g, g))
    (function Gauge g -> Some g | Counter _ | Histogram _ -> None)

let gauge_observe g v =
  g.g_count <- g.g_count + 1;
  g.g_sum <- g.g_sum + v;
  if v < g.g_min then g.g_min <- v;
  if v > g.g_max then g.g_max <- v;
  g.g_last <- v

let gauge_observe_n g v ~times =
  if times > 0 then begin
    g.g_count <- g.g_count + times;
    g.g_sum <- g.g_sum + (times * v);
    if v < g.g_min then g.g_min <- v;
    if v > g.g_max then g.g_max <- v;
    g.g_last <- v
  end

type hist_snapshot = {
  count : int;
  sum : int;
  buckets : (int * int) list;
}

(* Nearest-rank percentile, reported as the bucket lower bound (the
   histogram's native resolution). *)
let hist_percentile (h : hist_snapshot) q =
  let rank = Int.max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
  let rec go seen = function
    | [] -> 0
    | (floor, n) :: rest ->
      let seen = seen + n in
      if seen >= rank then floor else go seen rest
  in
  go 0 h.buckets

let hist_max_floor (h : hist_snapshot) =
  List.fold_left (fun acc (floor, _) -> Int.max acc floor) 0 h.buckets

type gauge_snapshot = {
  count : int;
  sum : int;
  min : int;
  max : int;
  last : int;
}

type snapshot =
  | Counter_v of int
  | Histogram_v of hist_snapshot
  | Gauge_v of gauge_snapshot

let hist_snapshot_of (h : histogram) : hist_snapshot =
  let buckets = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.buckets.(i) > 0 then buckets := (bucket_floor i, h.buckets.(i)) :: !buckets
  done;
  { count = h.h_count; sum = h.h_sum; buckets = !buckets }

let gauge_snapshot_of (g : gauge) : gauge_snapshot =
  {
    count = g.g_count;
    sum = g.g_sum;
    min = (if g.g_count = 0 then 0 else g.g_min);
    max = (if g.g_count = 0 then 0 else g.g_max);
    last = g.g_last;
  }

let snapshot_of = function
  | Counter c -> Counter_v c.count
  | Histogram h -> Histogram_v (hist_snapshot_of h)
  | Gauge g -> Gauge_v (gauge_snapshot_of g)

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, snapshot_of m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find_counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> Some c.count
  | Some (Histogram _ | Gauge _) | None -> None

let find_histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> Some (hist_snapshot_of h)
  | Some (Counter _ | Gauge _) | None -> None

let find_gauge t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Gauge g) -> Some (gauge_snapshot_of g)
  | Some (Counter _ | Histogram _) | None -> None
