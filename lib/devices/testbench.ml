module Netlist = Rlc_circuit.Netlist
module Engine = Rlc_circuit.Engine
module Waveform = Rlc_waveform.Waveform

type result = {
  input : Waveform.t;
  output : Waveform.t;
  engine : Engine.result;
  out_node : Netlist.node;
  vdd_node : Netlist.node;
}

let falling_input (tech : Tech.t) ~t0 ~slew t =
  if t <= t0 then tech.vdd
  else if t >= t0 +. slew then 0.
  else tech.vdd *. (1. -. ((t -. t0) /. slew))

let rising_input (tech : Tech.t) ~t0 ~slew t =
  if t <= t0 then 0.
  else if t >= t0 +. slew then tech.vdd
  else tech.vdd *. (t -. t0) /. slew

type edge = Rise | Fall

let cap_load farads nl node =
  if farads > 0. then Netlist.capacitor nl ~name:"Cload" node Netlist.ground farads

type bench = {
  netlist : Netlist.t;
  input : Netlist.node;
  output : Netlist.node;
  vdd_node : Netlist.node;
  record_nodes : Netlist.node list option;
  until : Engine.crossing list option;
  t_stop : float;
}

let build ?t_stop ?(t0 = 10e-12) ?(edge = Rise) ?record ?until ~tech ~size ~input_slew ~load () =
  if input_slew <= 0. then invalid_arg "Testbench.drive: input_slew must be positive";
  let t_stop =
    match t_stop with Some t -> t | None -> t0 +. (4. *. input_slew) +. 1e-9
  in
  let nl = Netlist.create () in
  let vdd_node = Netlist.node nl "vdd" in
  Netlist.force_voltage nl vdd_node (fun _ -> tech.Tech.vdd);
  let input = Netlist.node nl "in" in
  let input_fn =
    match edge with
    | Rise -> falling_input tech ~t0 ~slew:input_slew
    | Fall -> rising_input tech ~t0 ~slew:input_slew
  in
  (* The ramp corners are where the adaptive stepper must land exactly. *)
  Netlist.force_voltage nl ~breakpoints:[ t0; t0 +. input_slew ] input input_fn;
  let output = Netlist.node nl "out" in
  let inv = Inverter.make tech ~size in
  Inverter.add nl inv ~vdd_node ~input ~output;
  load nl output;
  (* The [record] thunk runs after [load] so it can name nodes the load
     callback created (e.g. the far end of a just-attached ladder).  The
     bench's own observation nodes are always kept. *)
  let record_nodes =
    match record with
    | None -> None
    | Some extra -> Some (input :: output :: vdd_node :: extra ())
  in
  let until = Option.map (fun f -> f ~input ~output) until in
  { netlist = nl; input; output; vdd_node; record_nodes; until; t_stop }

let drive ?obs ?(dt = 0.25e-12) ?t_stop ?adaptive ?t0 ?edge ?record ?until ~tech ~size
    ~input_slew ~load () =
  let b = build ?t_stop ?t0 ?edge ?record ?until ~tech ~size ~input_slew ~load () in
  let engine =
    Engine.transient ?obs ?record_nodes:b.record_nodes ?until:b.until ?adaptive ~dt
      ~t_stop:b.t_stop b.netlist
  in
  {
    input = Engine.voltage engine b.input;
    output = Engine.voltage engine b.output;
    engine;
    out_node = b.output;
    vdd_node = b.vdd_node;
  }
