type t = {
  drivers : (string * float) list;
  inputs : (string * float) list;
  edges : (string * string * string) list;
  loads : (string * string * float) list;
}

exception Err of int * string

let float_of lineno s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Err (lineno, "expected a number, got " ^ s))

let parse_res ?file src =
  let drivers = ref [] and inputs = ref [] and edges = ref [] and loads = ref [] in
  (* Names seen on driver and input lines: a list lookup would make a
     parse quadratic in nets. *)
  let seen_drivers = Hashtbl.create 64 and seen_inputs = Hashtbl.create 64 in
  let first seen net =
    if Hashtbl.mem seen net then false
    else begin
      Hashtbl.add seen net ();
      true
    end
  in
  let lines = String.split_on_char '\n' src in
  try
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let line =
          match String.index_opt line '#' with
          | Some k -> String.sub line 0 k
          | None -> (
              match String.index_opt line '/' with
              | Some k when k + 1 < String.length line && line.[k + 1] = '/' ->
                  String.sub line 0 k
              | _ -> line)
        in
        let toks =
          String.split_on_char ' ' (String.map (function '\t' | '\r' -> ' ' | c -> c) line)
          |> List.filter (fun s -> s <> "")
        in
        match toks with
        | [] -> ()
        | [ "driver"; net; size ] ->
            if not (first seen_drivers net) then
              raise (Err (lineno, "duplicate driver line for net " ^ net));
            let size = float_of lineno size in
            if size <= 0. then raise (Err (lineno, "driver size must be positive"));
            drivers := (net, size) :: !drivers
        | [ "input"; net; slew_ps ] ->
            if not (first seen_inputs net) then
              raise (Err (lineno, "duplicate input line for net " ^ net));
            let slew_ps = float_of lineno slew_ps in
            if slew_ps <= 0. then raise (Err (lineno, "input slew must be positive"));
            inputs := (net, Rlc_num.Units.ps slew_ps) :: !inputs
        | [ "edge"; from_net; pin; to_net ] ->
            if from_net = to_net then
              raise (Err (lineno, "edge may not connect a net to itself"));
            edges := (from_net, pin, to_net) :: !edges
        | [ "load"; net; pin; cap_ff ] ->
            let cap_ff = float_of lineno cap_ff in
            if cap_ff < 0. then raise (Err (lineno, "load cap must be non-negative"));
            loads := (net, pin, Rlc_num.Units.ff cap_ff) :: !loads
        | tok :: _ ->
            raise
              (Err (lineno, "unknown keyword " ^ tok ^ " (expected driver/input/edge/load)")))
      lines;
    Ok
      {
        drivers = List.rev !drivers;
        inputs = List.rev !inputs;
        edges = List.rev !edges;
        loads = List.rev !loads;
      }
  with Err (lineno, msg) -> Error (Rlc_errors.Error.parse ?file ~line:lineno msg)

let default_of_spef ?(size = 75.) ?(slew = 100e-12) (spef : Rlc_spef.Spef.t) =
  let names = List.map (fun n -> n.Rlc_spef.Spef.net_name) spef.Rlc_spef.Spef.nets in
  {
    drivers = List.map (fun n -> (n, size)) names;
    inputs = List.map (fun n -> (n, slew)) names;
    edges = [];
    loads = [];
  }

let to_string t =
  let buf = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter (fun (n, s) -> p "driver %s %g\n" n s) t.drivers;
  List.iter (fun (n, s) -> p "input %s %g\n" n (Rlc_num.Units.in_ps s)) t.inputs;
  List.iter (fun (a, pin, b) -> p "edge %s %s %s\n" a pin b) t.edges;
  List.iter (fun (n, pin, c) -> p "load %s %s %g\n" n pin (Rlc_num.Units.in_ff c)) t.loads;
  Buffer.contents buf
