(* SPEF-subset parser tests: header units, D_NET sections, error paths,
   round-trip, and tree conversion feeding the moment engine. *)

let sample =
  {|*SPEF "IEEE 1481-1998"
*DESIGN "demo_chip"
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 OHM
*L_UNIT 1 PH

// a 2-segment RLC net with a side branch
*D_NET net1 1300
*CONN
*P drv O
*P rcv I
*CAP
1 net1:1 400
2 net1:2 500
3 rcv 400
*RES
1 drv net1:1 25.0
2 net1:1 net1:2 25.0
3 net1:2 rcv 10.0
*INDUC
1 drv net1:1 2000
2 net1:1 net1:2 2000
*END
|}

(* Typed-error parse, flattened to the message string the assertions below
   inspect. *)
let parse_str src = Result.map_error Rlc_errors.Error.message (Rlc_spef.Spef.parse_res src)
let parsed = lazy (match parse_str sample with Ok t -> t | Error e -> failwith e)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let test_header () =
  let t = Lazy.force parsed in
  Alcotest.(check string) "design" "demo_chip" t.Rlc_spef.Spef.design;
  check_float ~eps:1e-30 "c unit" 1e-15 t.Rlc_spef.Spef.units.Rlc_spef.Spef.c_scale;
  check_float ~eps:1e-30 "l unit" 1e-12 t.Rlc_spef.Spef.units.Rlc_spef.Spef.l_scale

let test_net_contents () =
  let t = Lazy.force parsed in
  match Rlc_spef.Spef.find_net t "net1" with
  | None -> Alcotest.fail "net1 missing"
  | Some net ->
      Alcotest.(check int) "conns" 2 (List.length net.Rlc_spef.Spef.conns);
      Alcotest.(check int) "caps" 3 (List.length net.Rlc_spef.Spef.caps);
      Alcotest.(check int) "branches" 5 (List.length net.Rlc_spef.Spef.branches);
      check_float ~eps:1e-22 "declared total cap" 1.3e-12 net.Rlc_spef.Spef.total_cap;
      check_float ~eps:1e-20 "summed cap" 1.3e-12 (Rlc_spef.Spef.net_total_cap net);
      (* Values are scaled to SI. *)
      let r1 = List.find (fun b -> b.Rlc_spef.Spef.kind = Rlc_spef.Spef.Res && b.Rlc_spef.Spef.b_id = 1) net.Rlc_spef.Spef.branches in
      check_float "r in ohms" 25. r1.Rlc_spef.Spef.value;
      let l1 = List.find (fun b -> b.Rlc_spef.Spef.kind = Rlc_spef.Spef.Induc && b.Rlc_spef.Spef.b_id = 1) net.Rlc_spef.Spef.branches in
      check_float ~eps:1e-18 "l in henries" 2e-9 l1.Rlc_spef.Spef.value

let test_roundtrip () =
  let t = Lazy.force parsed in
  match parse_str (Rlc_spef.Spef.to_string t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      Alcotest.(check string) "design" t.Rlc_spef.Spef.design t'.Rlc_spef.Spef.design;
      let n = Option.get (Rlc_spef.Spef.find_net t "net1") and n' = Option.get (Rlc_spef.Spef.find_net t' "net1") in
      Alcotest.(check int) "branches" (List.length n.Rlc_spef.Spef.branches) (List.length n'.Rlc_spef.Spef.branches);
      check_float ~eps:1e-22 "total cap preserved" (Rlc_spef.Spef.net_total_cap n) (Rlc_spef.Spef.net_total_cap n')

let test_to_tree () =
  let t = Lazy.force parsed in
  let net = Option.get (Rlc_spef.Spef.find_net t "net1") in
  match Rlc_spef.Spef.to_tree net ~root:"drv" with
  | Error e -> Alcotest.fail e
  | Ok tree ->
      Alcotest.(check int) "nodes" 4 (Rlc_moments.Tree.node_count tree);
      check_float ~eps:1e-20 "tree cap = net cap" 1.3e-12 (Rlc_moments.Tree.total_cap tree);
      (* Moments of the parsed net behave like any RLC tree. *)
      let m = Rlc_moments.Moments.driving_point ~order:3 tree in
      check_float ~eps:1e-20 "m1 = total cap" 1.3e-12 m.(1);
      Alcotest.(check bool) "m2 negative" true (m.(2) < 0.)

let test_to_tree_from_receiver () =
  (* Rooting at the receiver must also work (tree re-rooted). *)
  let t = Lazy.force parsed in
  let net = Option.get (Rlc_spef.Spef.find_net t "net1") in
  match Rlc_spef.Spef.to_tree net ~root:"rcv" with
  | Error e -> Alcotest.fail e
  | Ok tree -> check_float ~eps:1e-20 "same caps" 1.3e-12 (Rlc_moments.Tree.total_cap tree)

let test_coupling_cap () =
  (* 4-token *CAP entries are typed cross-net couplings, scaled like
     grounded caps and kept out of net_total_cap / to_tree. *)
  let src =
    "*C_UNIT 1 FF\n*D_NET n 2.0\n*CAP\n1 a 1.0\n2 b 1.0\n3 a x 3.0\n*RES\n1 a b 1.0\n*END\n"
  in
  let t = match parse_str src with Ok t -> t | Error e -> failwith e in
  let net = List.hd t.Rlc_spef.Spef.nets in
  Alcotest.(check int) "grounded caps" 2 (List.length net.Rlc_spef.Spef.caps);
  (match net.Rlc_spef.Spef.x_caps with
  | [ x ] ->
      Alcotest.(check string) "node1" "a" x.Rlc_spef.Spef.x_node1;
      Alcotest.(check string) "node2" "x" x.Rlc_spef.Spef.x_node2;
      check_float ~eps:1e-22 "scaled to SI" 3e-15 x.Rlc_spef.Spef.x_farads
  | l -> Alcotest.failf "expected 1 coupling, got %d" (List.length l));
  (* Couplings are not grounded cap: totals unchanged, tree unchanged. *)
  check_float ~eps:1e-22 "net_total_cap ignores couplings" 2e-15
    (Rlc_spef.Spef.net_total_cap net);
  match Rlc_spef.Spef.to_tree net ~root:"a" with
  | Error e -> Alcotest.fail e
  | Ok tree ->
      Alcotest.(check int) "tree nodes" 2 (Rlc_moments.Tree.node_count tree);
      check_float ~eps:1e-22 "tree cap" 2e-15 (Rlc_moments.Tree.total_cap tree)

let test_coupling_roundtrip () =
  let src =
    "*C_UNIT 1 FF\n*D_NET n 2.0\n*CAP\n1 a 1.0\n2 b 1.0\n3 a x 3.0\n*RES\n1 a b 1.0\n*END\n"
  in
  let t = match parse_str src with Ok t -> t | Error e -> failwith e in
  let t' =
    match parse_str (Rlc_spef.Spef.to_string t) with Ok t -> t | Error e -> failwith e
  in
  let x = List.hd (List.hd t'.Rlc_spef.Spef.nets).Rlc_spef.Spef.x_caps in
  Alcotest.(check string) "node2 survives round-trip" "x" x.Rlc_spef.Spef.x_node2;
  check_float ~eps:1e-22 "value survives round-trip" 3e-15 x.Rlc_spef.Spef.x_farads

let test_error_duplicate_coupling () =
  (* The same unordered node pair twice — even split across the two nets'
     sections — is a modeling error, reported with both lines. *)
  let src =
    "*D_NET n 1.0\n*CAP\n1 a 1.0\n2 a x 3.0\n*END\n*D_NET m 1.0\n*CAP\n1 x 1.0\n2 x a 4.0\n*END\n"
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  match parse_str src with
  | Ok _ -> Alcotest.fail "duplicate coupling accepted"
  | Error e -> Alcotest.(check bool) "mentions duplicate" true (contains e "duplicate")

let test_error_coupling_same_node () =
  match parse_str "*D_NET n 1.0\n*CAP\n1 a a 3.0\n*END\n" with
  | Ok _ -> Alcotest.fail "self-coupling accepted"
  | Error _ -> ()

let test_error_mutual () =
  match parse_str "*D_NET n 1.0\n*K 1 a b c 0.5\n*END\n" with
  | Ok _ -> Alcotest.fail "mutual accepted"
  | Error _ -> ()

let test_error_unterminated () =
  match parse_str "*D_NET n 1.0\n*CAP\n1 a 3.0\n" with
  | Ok _ -> Alcotest.fail "unterminated net accepted"
  | Error _ -> ()

let test_error_loop () =
  let src =
    "*D_NET n 1.0\n*CAP\n1 a 1.0\n2 b 1.0\n3 c 1.0\n*RES\n1 a b 1.0\n2 b c 1.0\n3 c a 1.0\n*END\n"
  in
  let t = match parse_str src with Ok t -> t | Error e -> failwith e in
  match Rlc_spef.Spef.to_tree (List.hd t.Rlc_spef.Spef.nets) ~root:"a" with
  | Ok _ -> Alcotest.fail "loop accepted"
  | Error e -> Alcotest.(check bool) "mentions loop" true (String.length e > 0)

let test_error_bad_root () =
  let t = Lazy.force parsed in
  let net = Option.get (Rlc_spef.Spef.find_net t "net1") in
  match Rlc_spef.Spef.to_tree net ~root:"nonexistent" with
  | Ok _ -> Alcotest.fail "bad root accepted"
  | Error _ -> ()

let test_l_only_branch_rejected () =
  let src = "*D_NET n 1.0\n*CAP\n1 a 1.0\n2 b 1.0\n*INDUC\n1 a b 100\n*END\n" in
  let t = match parse_str src with Ok t -> t | Error e -> failwith e in
  match Rlc_spef.Spef.to_tree (List.hd t.Rlc_spef.Spef.nets) ~root:"a" with
  | Ok _ -> Alcotest.fail "L-only branch accepted"
  | Error _ -> ()

let test_parallel_merge () =
  (* Two parallel 50-Ohm resistors between the same nodes merge to 25. *)
  let src = "*D_NET n 1.0\n*CAP\n1 a 1.0\n2 b 1.0\n*RES\n1 a b 50\n2 a b 50\n*END\n" in
  let t = match parse_str src with Ok t -> t | Error e -> failwith e in
  match Rlc_spef.Spef.to_tree (List.hd t.Rlc_spef.Spef.nets) ~root:"a" with
  | Error e -> Alcotest.fail e
  | Ok tree -> (
      match Rlc_moments.Tree.children tree with
      | [ (r, _, _) ] -> check_float "parallel R" 25. r
      | _ -> Alcotest.fail "expected one merged branch")

let test_multi_net_out_of_order () =
  (* Several D_NET blocks in one file, deliberately not in topological
     order; parsing preserves every block and find_net sees them all. *)
  let block name =
    Printf.sprintf
      "*D_NET %s 2.0\n*CONN\n*P %s_drv O\n*CAP\n1 %s_a 1.0\n2 %s_b 1.0\n*RES\n1 %s_drv %s_a \
       5\n2 %s_a %s_b 5\n*END\n"
      name name name name name name name name
  in
  let src = "*SPEF \"x\"\n" ^ block "sink2" ^ block "root0" ^ block "mid1" in
  let t = match parse_str src with Ok t -> t | Error e -> failwith e in
  Alcotest.(check int) "three nets" 3 (List.length t.Rlc_spef.Spef.nets);
  List.iter
    (fun name ->
      match Rlc_spef.Spef.find_net t name with
      | None -> Alcotest.fail (name ^ " missing")
      | Some net ->
          check_float ~eps:1e-25 "each block kept its caps" 2e-15
            (Rlc_spef.Spef.net_total_cap net))
    [ "root0"; "mid1"; "sink2" ]

let test_duplicate_net_rejected () =
  let block = "*D_NET dup 1.0\n*CAP\n1 a 1.0\n*END\n" in
  match parse_str (block ^ block) with
  | Ok _ -> Alcotest.fail "duplicate *D_NET accepted"
  | Error e ->
      Alcotest.(check bool) "names the net" true
        (String.length e > 0
        &&
        let rec contains i =
          i + 3 <= String.length e && (String.sub e i 3 = "dup" || contains (i + 1))
        in
        contains 0)

(* The duplicate check keeps its text and line deep into a file: the
   8,000th block repeats the 4,321st, and its *END line is named. *)
let test_late_duplicate_net () =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "*SPEF \"IEEE 1481-1998\"\n";
  let block name = Printf.bprintf b "*D_NET %s 1.0\n*CAP\n1 %s:1 1.0\n*END\n" name name in
  for i = 1 to 7_999 do
    block (Printf.sprintf "n%d" i)
  done;
  block "n4321";
  match Rlc_spef.Spef.parse_res (Buffer.contents b) with
  | Error (Rlc_errors.Error.Parse { line = Some 32_001; _ } as e) ->
      Alcotest.(check string) "message" "32001: duplicate *D_NET n4321" (Rlc_errors.Error.message e)
  | Error e -> Alcotest.fail ("wrong error: " ^ Rlc_errors.Error.to_string e)
  | Ok _ -> Alcotest.fail "duplicate accepted"

(* Tokens are separated by spaces, tabs and carriage returns, and only a
   line's first '/' can open a "//" comment. *)
let test_tokens_and_comments () =
  let src =
    "*D_NET n 1.0\r\n// a comment line\n*CAP\t// trailing\n1\tn:1  \t1.0\r\n\n*END\n"
  in
  (match parse_str src with
  | Ok t -> (
      match Rlc_spef.Spef.find_net t "n" with
      | Some net -> Alcotest.(check int) "one cap" 1 (List.length net.Rlc_spef.Spef.caps)
      | None -> Alcotest.fail "net missing")
  | Error e -> Alcotest.fail e);
  match parse_str "*D_NET n 1.0\n*CAP\n1 n/1 1.0 // not a comment\n*END\n" with
  | Error e -> Alcotest.(check string) "second slash pair kept" "3: unexpected token 1" e
  | Ok _ -> Alcotest.fail "a later // opened a comment"

let test_driver_conn () =
  let t = Lazy.force parsed in
  let net = Option.get (Rlc_spef.Spef.find_net t "net1") in
  (match Rlc_spef.Spef.driver_conn net with
  | Ok c -> Alcotest.(check string) "driver pin" "drv" c.Rlc_spef.Spef.pin
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one load conn" 1 (List.length (Rlc_spef.Spef.load_conns net));
  (* No Output conn at all. *)
  let src = "*D_NET n 1.0\n*CONN\n*P rcv I\n*CAP\n1 a 1.0\n*END\n" in
  let t = match parse_str src with Ok t -> t | Error e -> failwith e in
  (match Rlc_spef.Spef.driver_conn (List.hd t.Rlc_spef.Spef.nets) with
  | Ok _ -> Alcotest.fail "accepted net with no Output conn"
  | Error _ -> ());
  (* Two Output conns is ambiguous. *)
  let src = "*D_NET n 1.0\n*CONN\n*P d1 O\n*P d2 O\n*CAP\n1 a 1.0\n*END\n" in
  let t = match parse_str src with Ok t -> t | Error e -> failwith e in
  match Rlc_spef.Spef.driver_conn (List.hd t.Rlc_spef.Spef.nets) with
  | Ok _ -> Alcotest.fail "accepted net with two Output conns"
  | Error _ -> ()

let test_extra_caps () =
  let t = Lazy.force parsed in
  let net = Option.get (Rlc_spef.Spef.find_net t "net1") in
  let bare = Result.get_ok (Rlc_spef.Spef.to_tree net ~root:"drv") in
  let loaded =
    Result.get_ok (Rlc_spef.Spef.to_tree ~extra_caps:[ ("rcv", 10e-15) ] net ~root:"drv")
  in
  check_float ~eps:1e-20 "extra cap lands in the tree" (1.3e-12 +. 10e-15)
    (Rlc_moments.Tree.total_cap loaded);
  (* More far-end cap slows the first moment down. *)
  let m = Rlc_moments.Moments.driving_point ~order:1 bare
  and m' = Rlc_moments.Moments.driving_point ~order:1 loaded in
  Alcotest.(check bool) "m1 grows" true (m'.(1) > m.(1));
  (* Unknown attachment node is an error, not a silent drop. *)
  match Rlc_spef.Spef.to_tree ~extra_caps:[ ("nowhere", 1e-15) ] net ~root:"drv" with
  | Ok _ -> Alcotest.fail "extra cap on unknown node accepted"
  | Error _ -> ()

let test_uniform_line_spef_matches_analytic () =
  (* Emit a chain net equivalent to a uniform line and compare the parsed
     tree's moments against the distributed ABCD computation. *)
  let n = 60 in
  let r_tot = 72.44 and l_tot = 5.14e-9 and c_tot = 1.10e-12 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"gen\"\n*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 PH\n*D_NET line 0\n*CAP\n";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "%d n%d %.8g\n" i i (c_tot /. float_of_int n /. 1e-15))
  done;
  Buffer.add_string buf "*RES\n";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "%d n%d n%d %.8g\n" i (i - 1) i (r_tot /. float_of_int n))
  done;
  Buffer.add_string buf "*INDUC\n";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "%d n%d n%d %.8g\n" i (i - 1) i (l_tot /. float_of_int n /. 1e-12))
  done;
  Buffer.add_string buf "*END\n";
  let t = match parse_str (Buffer.contents buf) with Ok t -> t | Error e -> failwith e in
  let tree = Result.get_ok (Rlc_spef.Spef.to_tree (List.hd t.Rlc_spef.Spef.nets) ~root:"n0") in
  let m_tree = Rlc_moments.Moments.driving_point ~order:3 tree in
  let line = Rlc_tline.Line.of_totals ~r:r_tot ~l:l_tot ~c:c_tot ~length:5e-3 in
  let m_exact = Rlc_moments.Moments.of_line ~order:3 line ~cl:0. in
  for k = 1 to 3 do
    let rel = Float.abs ((m_tree.(k) -. m_exact.(k)) /. m_exact.(k)) in
    Alcotest.(check bool) (Printf.sprintf "m%d within discretization error" k) true (rel < 0.05)
  done

let () =
  Alcotest.run "rlc_spef"
    [
      ( "parse",
        [
          Alcotest.test_case "header" `Quick test_header;
          Alcotest.test_case "net contents" `Quick test_net_contents;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "coupling cap" `Quick test_coupling_cap;
          Alcotest.test_case "coupling roundtrip" `Quick test_coupling_roundtrip;
          Alcotest.test_case "multi-net out of order" `Quick test_multi_net_out_of_order;
          Alcotest.test_case "duplicate net rejected" `Quick test_duplicate_net_rejected;
          Alcotest.test_case "duplicate as the 8,000th block" `Quick test_late_duplicate_net;
          Alcotest.test_case "tokens and comments" `Quick test_tokens_and_comments;
          Alcotest.test_case "driver conn" `Quick test_driver_conn;
        ] );
      ( "tree",
        [
          Alcotest.test_case "to_tree" `Quick test_to_tree;
          Alcotest.test_case "re-rooted" `Quick test_to_tree_from_receiver;
          Alcotest.test_case "parallel merge" `Quick test_parallel_merge;
          Alcotest.test_case "extra caps" `Quick test_extra_caps;
          Alcotest.test_case "uniform line vs analytic" `Quick test_uniform_line_spef_matches_analytic;
        ] );
      ( "errors",
        [
          Alcotest.test_case "duplicate coupling" `Quick test_error_duplicate_coupling;
          Alcotest.test_case "self coupling" `Quick test_error_coupling_same_node;
          Alcotest.test_case "mutual inductance" `Quick test_error_mutual;
          Alcotest.test_case "unterminated" `Quick test_error_unterminated;
          Alcotest.test_case "resistive loop" `Quick test_error_loop;
          Alcotest.test_case "bad root" `Quick test_error_bad_root;
          Alcotest.test_case "L-only branch" `Quick test_l_only_branch_rejected;
        ] );
    ]
