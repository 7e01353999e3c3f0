type t = {
  entries : int;
  class_columns : int;
  mutable map : (int * int) list; (* cid -> column, newest first *)
}

let create ~entries ~class_columns =
  if entries < 1 then invalid_arg "Mapping_table.create: entries must be >= 1";
  if class_columns < 0 then invalid_arg "Mapping_table.create: negative class_columns";
  { entries; class_columns; map = [] }

let rec assoc cid = function
  | [] -> -1
  | (c, col) :: rest -> if c = cid then col else assoc cid rest

let lookup t ~cid = assoc cid t.map

let rec mapped col = function
  | [] -> false
  | (_, c) :: rest -> c = col || mapped col rest

(* drop every mapping whose column is quiescent *)
let gc t ~column_busy x = t.map <- List.filter (fun (_, col) -> column_busy x col) t.map

let rec free_from t column_busy x col =
  if col >= t.class_columns then -1
  else if (not (mapped col t.map)) && not (column_busy x col) then col
  else free_from t column_busy x (col + 1)

let lookup_or_allocate t ~cid ~column_busy x =
  let col = lookup t ~cid in
  if col >= 0 || t.class_columns = 0 then col
  else begin
    if List.length t.map >= t.entries then gc t ~column_busy x;
    if List.length t.map >= t.entries then -1
    else begin
      let free = free_from t column_busy x 0 in
      (* no free column: the designated shared overflow column *)
      let col = if free >= 0 then free else t.class_columns - 1 in
      t.map <- (cid, col) :: t.map;
      col
    end
  end

let rec cid_of col = function
  | [] -> -1
  | (cid, c) :: rest -> if c = col then cid else cid_of col rest

let cid_of_column t ~column = cid_of column t.map

let mappings t = t.map

let set_mappings t map =
  if List.length map > t.entries then invalid_arg "Mapping_table.set_mappings: overflow";
  t.map <- map
