module Design = Rlc_flow.Design
module Flow = Rlc_flow.Flow
module Pool = Rlc_parallel.Pool
module Obs = Rlc_obs.Obs
module Line = Rlc_tline.Line
module Pwl = Rlc_waveform.Pwl
module Waveform = Rlc_waveform.Waveform
module Driver_model = Rlc_ceff.Driver_model

let src = Logs.Src.create "rlc.xtalk" ~doc:"coupled-net crosstalk analysis"

module Log = (val Logs.src_log src : Logs.LOG)

module Config = struct
  type t = {
    threshold : float;
    budget : float;
    alignments : int;
    n_segments : int;
    dt : float;
    jobs : int option;
    pool : Pool.t option;
    obs : Obs.t;
  }

  let default =
    {
      threshold = 0.05;
      budget = 0.25;
      alignments = 9;
      n_segments = Cluster.default_segments;
      dt = 0.5e-12;
      jobs = None;
      pool = None;
      obs = Obs.null;
    }
end

type pair = {
  victim : int;
  aggressor : int;
  cc : float;
  est : Noise.estimate;
  screened : bool;
}

type victim_result = {
  victim : int;
  pairs : pair list;
  noise_est : float;
  simulated : bool;
  noise_sim : float option;
  isolated_delay : float;
  coupled_delay : float option;
  pushout : float option;
  violation : bool;
}

type stats = {
  n_pairs : int;
  n_screened : int;
  n_simulated : int;
  n_alignment_sims : int;
  n_violations : int;
}

type result = {
  vdd : float;
  threshold : float;
  budget : float;
  alignments : int;
  victims : victim_result array;
  stats : stats;
}

(* The aggressor's output edge rate as a full-swing ramp time, extrapolated
   from the model waveform's 10-90 slew. *)
let full_swing_tr model = Driver_model.model_slew_10_90 model /. 0.8

(* Symmetric alignment grid: [n] points over [-span, span].  Grids nest —
   linspace with [2n-1] points contains every point of the [n]-point grid —
   which is what makes the worst case monotone in [n]. *)
let offsets ~span n =
  if n <= 1 then [| 0. |]
  else Array.init n (fun k -> -.span +. (2. *. span *. float_of_int k /. float_of_int (n - 1)))

(* Clusters a chunk steps as lanes of one batch.  Each lane keeps its
   handle alive while the batch steps (a three-member, 40-segment cluster's
   holds about 6.7K words): on [xtalk_bus] four lanes a chunk ran no faster
   than two beyond the spread, at 10 % more peak RSS, and eight ran slower
   (EXPERIMENTS.md). *)
let chunk_width = 2

(* The nested grid 9 -> 17 -> ... -> 257: a bound on the per-request cost
   and on the offsets array a client can make the analysis allocate. *)
let max_alignments = 257

let analyze ?(config = Config.default) (flow : Flow.result) =
  if config.Config.alignments < 1 || config.Config.alignments > max_alignments then
    invalid_arg
      (Printf.sprintf "Rlc_xtalk.analyze: alignments must be in 1..%d" max_alignments);
  (* A NaN or infinite level would silently switch the screen or the gate
     off: NaN compares false with every peak, and no peak reaches
     infinity. *)
  let level x = Float.is_finite x && x >= 0. in
  if not (level config.Config.threshold && level config.Config.budget) then
    invalid_arg "Rlc_xtalk.analyze: threshold and budget must be finite and non-negative";
  let design = flow.Flow.design in
  let obs = config.Config.obs in
  let vdd = design.Design.tech.Rlc_devices.Tech.vdd in
  let threshold_v = config.Config.threshold *. vdd in
  let budget_v = config.Config.budget *. vdd in
  (* Ordered pairs grouped by victim: every coupling edge is examined twice,
     once per direction. *)
  let agg_of = Hashtbl.create 16 in
  Array.iter
    (fun (c : Design.coupling) ->
      let add v a =
        Hashtbl.replace agg_of v
          ((a, c.Design.cc) :: Option.value (Hashtbl.find_opt agg_of v) ~default:[])
      in
      add c.Design.net_a c.Design.net_b;
      add c.Design.net_b c.Design.net_a)
    design.Design.couplings;
  let victims = List.sort compare (Hashtbl.fold (fun v _ acc -> v :: acc) agg_of []) in
  let solve_of id = (flow.Flow.results.(id)).Flow.solve in
  let model_of id = (solve_of id).Flow.model in
  (* ------------------------------------------------------------ screen *)
  let screened_victims =
    Obs.time obs "xtalk.screen" (fun () ->
        (* Coupling is symmetric, so every aggressor is also a victim: one
           edge-rate measurement per net instead of one per ordered pair. *)
        let tr_of = Hashtbl.create 16 in
        List.iter (fun v -> Hashtbl.replace tr_of v (full_swing_tr (model_of v))) victims;
        List.map
          (fun v ->
            let net = design.Design.nets.(v) in
            let line = net.Design.eq_line in
            let m = model_of v in
            let rv = m.Driver_model.rs +. (0.5 *. Line.total_r line) in
            let cv = Line.total_c line +. net.Design.cl in
            let damping = Line.damping_ratio line in
            let pairs =
              List.sort (fun (a, _) (b, _) -> compare a b)
                (Option.value (Hashtbl.find_opt agg_of v) ~default:[])
              |> List.map (fun (a, cc) ->
                     let est =
                       Noise.estimate ~vdd ~tr:(Hashtbl.find tr_of a) ~rv ~cv ~cc ~damping
                     in
                     let screened = est.Noise.v_peak < threshold_v in
                     Obs.incr obs
                       (if screened then "xtalk.pairs_screened" else "xtalk.pairs_simulated");
                     { victim = v; aggressor = a; cc; est; screened })
            in
            (v, pairs))
          victims)
  in
  (* ---------------------------------------------------------- simulate *)
  let pool = Pool.borrow ?pool:config.Config.pool ?jobs:config.Config.jobs () in
  let member_of ?drive id =
    let net = design.Design.nets.(id) in
    {
      Cluster.line = net.Design.eq_line;
      drive;
      rs = (model_of id).Driver_model.rs;
      cl = net.Design.cl;
    }
  in
  let jobs = Array.of_list screened_victims in
  let survivors_of k = List.filter (fun p -> not p.screened) (snd jobs.(k)) in
  (* The victims that have survivors, in chunks of one cluster shape (its
     member count) of [chunk_width] each: a chunk's clusters step as lanes
     of one batch.  The chunks depend only on the design, not on the
     pool. *)
  let chunks =
    let shape k = 1 + List.length (survivors_of k) in
    let ids = List.init (Array.length jobs) Fun.id in
    let rec split = function
      | [] -> []
      | ks ->
          List.filteri (fun i _ -> i < chunk_width) ks
          :: split (List.filteri (fun i _ -> i >= chunk_width) ks)
    in
    List.sort_uniq compare (List.map shape ids)
    |> List.concat_map (fun members ->
           if members = 1 then [] else split (List.filter (fun k -> shape k = members) ids))
    |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
    |> List.map Array.of_list |> Array.of_list
  in
  let simulate_chunk chunk =
    let t0 = Obs.start obs in
    let victims = Array.map (fun k -> fst jobs.(k)) chunk in
    let survivors = Array.map survivors_of chunk in
    (* Noise: quiet victim, every surviving aggressor rising on its own
       model waveform, simultaneous starts (worst for a same-polarity
       capacitive sum).  Each run stops once its peak is proved final, so
       its maximum is the full window's, bit for bit. *)
    let noise =
      Cluster.simulate_batch ~obs ~n_segments:config.Config.n_segments ~dt:config.Config.dt
        (Array.mapi
           (fun i v ->
             {
               Cluster.victim = member_of v;
               aggressors =
                 List.map
                   (fun p ->
                     (member_of ~drive:(model_of p.aggressor).Driver_model.pwl p.aggressor, p.cc))
                   survivors.(i);
               until = [];
               until_peak = true;
               horizon = None;
             })
           victims)
      |> Array.map (fun far ->
             Obs.add obs "xtalk.noise_steps" (Waveform.length far - 1);
             Waveform.v_max far)
    in
    (* Delay: victim switches on its own model waveform, the aggressors
       oppose it (Miller worst case); sweep their common start over the
       alignment grid and keep the worst far-end 50 % crossing. *)
    let sweeps =
      Array.mapi
        (fun i v ->
          let survivors = survivors.(i) in
          let span =
            List.fold_left
              (fun acc p -> Float.max acc (Driver_model.transition_end (model_of p.aggressor)))
              ((solve_of v).Flow.stage_delay +. (solve_of v).Flow.far_slew)
              survivors
          in
          {
            Cluster.victim = member_of ~drive:(model_of v).Driver_model.pwl v;
            aggressors =
              List.map
                (fun p ->
                  let m = model_of p.aggressor in
                  ( member_of ~drive:(Pwl.falling ~vdd:m.Driver_model.vdd m.Driver_model.pwl)
                      p.aggressor,
                    p.cc ))
                survivors;
            offsets = offsets ~span config.Config.alignments;
          })
        victims
    in
    let worst =
      Cluster.worst_crossings ~obs ~n_segments:config.Config.n_segments ~dt:config.Config.dt ~vdd
        sweeps
    in
    let name v = design.Design.nets.(v).Design.name in
    Obs.finish obs
      ~args:
        [
          ("victims", String.concat "," (Array.to_list (Array.map name victims)));
          ("aggressors", string_of_int (List.length survivors.(0)));
        ]
      "xtalk.victim" t0;
    Array.mapi
      (fun i v ->
        match worst.(i) with
        | Ok d ->
            Log.debug (fun m ->
                m "victim %s: noise %.1f mV, delay %.1f -> %.1f ps" (name v)
                  (1e3 *. noise.(i))
                  (Rlc_num.Units.in_ps (solve_of v).Flow.stage_delay)
                  (Rlc_num.Units.in_ps d));
            Ok (noise.(i), d)
        | Error off ->
            Error
              (Failure
                 (Printf.sprintf
                    "Rlc_xtalk.analyze: victim %s: far end never reaches 50%% of %g V (aggressor \
                     offset %+.1f ps)"
                    (name v) vdd (Rlc_num.Units.in_ps off))))
      victims
  in
  (* A chunk job returns each victim's outcome, an exception of its
     batched runs being every one of its victims'. *)
  let chunk_results =
    Pool.map ~obs pool (Array.length chunks) (fun c ->
        let chunk = chunks.(c) in
        match simulate_chunk chunk with r -> r | exception e -> Array.map (fun _ -> Error e) chunk)
  in
  (* By victim; a failure is the first failing victim's in id order, the
     one a pool job per victim reported. *)
  let sim_results = Array.make (Array.length jobs) None in
  Array.iteri
    (fun c chunk -> Array.iteri (fun i k -> sim_results.(k) <- Some chunk_results.(c).(i)) chunk)
    chunks;
  let sim_results =
    Array.map (Option.map (function Ok r -> r | Error e -> raise e)) sim_results
  in
  (* ------------------------------------------------------------ report *)
  let victims_arr =
    Array.mapi
      (fun k (v, pairs) ->
        let noise_est = List.fold_left (fun acc p -> Float.max acc p.est.Noise.v_peak) 0. pairs in
        let isolated_delay = (solve_of v).Flow.stage_delay in
        match sim_results.(k) with
        | None ->
            Obs.observe obs "xtalk.noise_mv" (1e3 *. noise_est);
            {
              victim = v;
              pairs;
              noise_est;
              simulated = false;
              noise_sim = None;
              isolated_delay;
              coupled_delay = None;
              pushout = None;
              violation = false;
            }
        | Some (noise, coupled) ->
            Obs.observe obs "xtalk.noise_mv" (1e3 *. noise);
            {
              victim = v;
              pairs;
              noise_est;
              simulated = true;
              noise_sim = Some noise;
              isolated_delay;
              coupled_delay = Some coupled;
              pushout = Some (coupled -. isolated_delay);
              violation = noise >= budget_v;
            })
      jobs
  in
  let count f = Array.fold_left (fun acc v -> acc + f v) 0 victims_arr in
  let pair_count f =
    count (fun v -> List.length (List.filter f v.pairs))
  in
  let n_simulated_pairs = pair_count (fun p -> not p.screened) in
  let stats =
    {
      n_pairs = pair_count (fun _ -> true);
      n_screened = pair_count (fun p -> p.screened);
      n_simulated = n_simulated_pairs;
      n_alignment_sims =
        config.Config.alignments * count (fun v -> if v.simulated then 1 else 0);
      n_violations = count (fun v -> if v.violation then 1 else 0);
    }
  in
  Log.info (fun m ->
      m "xtalk: %d pairs, %d screened, %d simulated, %d violations" stats.n_pairs
        stats.n_screened stats.n_simulated stats.n_violations);
  {
    vdd;
    threshold = config.Config.threshold;
    budget = config.Config.budget;
    alignments = config.Config.alignments;
    victims = victims_arr;
    stats;
  }

(* ---------------------------------------------------------------- JSON *)

(* The report's float format, which refuses a non-finite number. *)
let num field x = Rlc_flow.Report.number ~prefix:"Rlc_xtalk.json_fragment" field x

let num_ps field x = num field (Rlc_num.Units.in_ps x)
let num_mv field x = num field (1e3 *. x)
let num_ff field x = num field (Rlc_num.Units.in_ff x)

let json_fragment (design : Design.t) (r : result) =
  let buf = Buffer.create 2048 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let name id = Rlc_flow.Report.json_escape design.Design.nets.(id).Design.name in
  p "{\n";
  p "    \"threshold_mv\": %s,\n" (num_mv "threshold_mv" (r.threshold *. r.vdd));
  p "    \"budget_mv\": %s,\n" (num_mv "budget_mv" (r.budget *. r.vdd));
  p "    \"alignments\": %d,\n" r.alignments;
  p "    \"pairs\": %d,\n" r.stats.n_pairs;
  p "    \"pairs_screened\": %d,\n" r.stats.n_screened;
  p "    \"pairs_simulated\": %d,\n" r.stats.n_simulated;
  p "    \"alignment_sims\": %d,\n" r.stats.n_alignment_sims;
  p "    \"violations\": %d,\n" r.stats.n_violations;
  p "    \"victims\": [\n";
  Array.iteri
    (fun i v ->
      p "      {\"net\":\"%s\",\"aggressors\":[" (name v.victim);
      List.iteri
        (fun j pr ->
          if j > 0 then p ",";
          p "{\"net\":\"%s\",\"cc_ff\":%s,\"est_mv\":%s,\"screened\":%b}" (name pr.aggressor)
            (num_ff "cc_ff" pr.cc) (num_mv "est_mv" pr.est.Noise.v_peak) pr.screened)
        v.pairs;
      p "],";
      p "\"noise_est_mv\":%s," (num_mv "noise_est_mv" v.noise_est);
      p "\"simulated\":%b," v.simulated;
      p "\"noise_mv\":%s,"
        (match v.noise_sim with Some n -> num_mv "noise_mv" n | None -> "null");
      p "\"isolated_delay_ps\":%s," (num_ps "isolated_delay_ps" v.isolated_delay);
      p "\"coupled_delay_ps\":%s,"
        (match v.coupled_delay with Some d -> num_ps "coupled_delay_ps" d | None -> "null");
      p "\"pushout_ps\":%s,"
        (match v.pushout with Some d -> num_ps "pushout_ps" d | None -> "null");
      p "\"violation\":%b}" v.violation;
      if i < Array.length r.victims - 1 then p ",";
      p "\n")
    r.victims;
  p "    ]\n";
  p "  }";
  Buffer.contents buf

(* -------------------------------------------------------------- summary *)

let summary (design : Design.t) fmt (r : result) =
  let pct a b = if b = 0 then 0. else 100. *. float_of_int a /. float_of_int b in
  Format.fprintf fmt
    "crosstalk: %d pairs, %d screened (%.0f%%), %d simulated, %d violation%s@."
    r.stats.n_pairs r.stats.n_screened
    (pct r.stats.n_screened r.stats.n_pairs)
    r.stats.n_simulated r.stats.n_violations
    (if r.stats.n_violations = 1 then "" else "s");
  Format.fprintf fmt "  threshold %.0f mV, budget %.0f mV, %d alignment%s@."
    (1e3 *. r.threshold *. r.vdd) (1e3 *. r.budget *. r.vdd) r.alignments
    (if r.alignments = 1 then "" else "s");
  Array.iter
    (fun v ->
      if v.simulated then
        Format.fprintf fmt "  %s <- %s: noise %.1f mV (est %.1f mV)%s, delay %.1f -> %.1f ps (push-out %+.1f ps)@."
          design.Design.nets.(v.victim).Design.name
          (String.concat ","
             (List.filter_map
                (fun p ->
                  if p.screened then None
                  else Some design.Design.nets.(p.aggressor).Design.name)
                v.pairs))
          (1e3 *. Option.get v.noise_sim)
          (1e3 *. v.noise_est)
          (if v.violation then " VIOLATION" else "")
          (Rlc_num.Units.in_ps v.isolated_delay)
          (Rlc_num.Units.in_ps (Option.get v.coupled_delay))
          (Rlc_num.Units.in_ps (Option.get v.pushout)))
    r.victims
