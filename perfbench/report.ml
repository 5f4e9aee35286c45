(* Metric collection and the result line.

   Each workload fills one [t]; [print_result] writes the last line the
   benchmark prints: {"correct":..,"attempted":..,"failed":..,
   "metrics":{name:{"value":..,"unit":..}}}.  Values keep every digit
   ("%.17g"). *)

type t = { mutable items : (string * float * string) list }

let create () = { items = [] }

let set t name unit value =
  t.items <- (name, value, unit) :: List.filter (fun (n, _, _) -> n <> name) t.items

let metrics t = List.rev t.items

(* Set every per-layer metric BENCHMARK.json names that [t] lacks to 0,
   with its unit: a layer the workload does not call. *)
let fill_missing t =
  let field name j = Option.bind (Bbc.Json.member name j) Bbc.Json.to_str in
  let per_layer =
    match Bbc.Json.of_string (Util.read_file "BENCHMARK.json") with
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
    | Ok j -> (
        match Option.bind (Bbc.Json.member "per_layer" j) Bbc.Json.to_list with
        | Some l -> l
        | None -> failwith "BENCHMARK.json: no per_layer list")
  in
  List.iter
    (fun m ->
      match (field "name" m, field "unit" m) with
      | Some name, Some unit ->
          if not (List.exists (fun (n, _, _) -> n = name) t.items) then set t name unit 0.
      | _ -> failwith "BENCHMARK.json: a per_layer metric without name or unit")
    per_layer

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_string s = Bbc.Json.to_string (Bbc.Json.Str s)

let print_result ~correct ~attempted ~failed t =
  let body =
    metrics t
    |> List.map (fun (name, value, unit) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name)
             (json_float value) (json_string unit))
    |> String.concat ","
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

(* ---------------------------------------------------------------- *)
(* Sample sets                                                        *)

(* Per-call timings of one operation. *)
type samples = { mutable xs : float list; mutable count : int }

let samples () = { xs = []; count = 0 }

let add s x =
  s.xs <- x :: s.xs;
  s.count <- s.count + 1

let to_array s = Array.of_list s.xs
let q s p = Util.quantile p (to_array s)
