(* E6 — Lemma 7: every stable (n,k)-graph has diameter
   O(sqrt(n log_k n)), and some node reaches everyone within O(sqrt n).
   Measured on the verified-stable willows spectrum. *)

let bound ~n ~k =
  sqrt (float_of_int n *. float_of_int (max 1 (Bbc.Metrics.floor_log ~base:k n)))

let row p =
  let open Bbc.Willows in
  let instance, config = build p in
  let n = size p in
  let apsp = Bbc_graph.Apsp.compute (Bbc.Config.to_graph instance config) in
  let diameter = Option.value ~default:(-1) (Bbc_graph.Apsp.diameter apsp) in
  let radius = Option.value ~default:(-1) (Bbc_graph.Apsp.radius apsp) in
  [
    Format.asprintf "%a" pp_params p;
    Table.cell_int n;
    Table.cell_int diameter;
    Table.cell_float (bound ~n ~k:p.k);
    Table.cell_int radius;
    Table.cell_float (sqrt (float_of_int n));
  ]

let run ?(quick = true) fmt =
  Table.section fmt "E6  Lemma 7: diameter of stable graphs";
  let t =
    Table.create ~title:"Diameters across the stable willows family"
      ~claim:
        "Lemma 7: a stable (n,k)-graph has diameter O(sqrt(n log_k n)), \
         and some node is within O(sqrt n) of everyone (radius)"
      ~columns:[ "params"; "n"; "diameter"; "sqrt(n log n)"; "radius"; "sqrt(n)" ]
  in
  let params =
    if quick then
      Bbc.Willows.
        [
          { k = 2; h = 2; l = 0 };
          { k = 2; h = 3; l = 0 };
          { k = 2; h = 3; l = 2 };
          { k = 2; h = 3; l = 6 };
          { k = 3; h = 2; l = 1 };
        ]
    else
      Bbc.Willows.
        [
          { k = 2; h = 2; l = 0 };
          { k = 2; h = 3; l = 0 };
          { k = 2; h = 3; l = 2 };
          { k = 2; h = 3; l = 6 };
          { k = 2; h = 3; l = 12 };
          { k = 2; h = 4; l = 4 };
          { k = 3; h = 2; l = 1 };
          { k = 3; h = 3; l = 0 };
        ]
  in
  List.iter (fun p -> Table.add_row t (row p)) params;
  Table.render fmt t;
  Table.note fmt
    "the willows diameter is Theta(h + l), so pushing l toward its \
     admissible maximum approaches the Lemma-7 ceiling without crossing it"
