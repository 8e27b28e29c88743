(* Tests for the guest stack: arenas, driver protocol, boot, the
   invocation flow, warmable components and capture/restore. *)

module G = Unikernel.Guest
module D = Unikernel.Driver
module C = Unikernel.Gconst

let frames () = Mem.Frame.create ~budget_bytes:(Int64.of_int (Mem.Mconfig.mib 2048)) ()

(* {1 Galloc} *)

let test_galloc_bump_touches_pages () =
  let f = frames () in
  let space = Mem.Addr_space.create f in
  let arena = Mem.Addr_space.create f |> ignore; Unikernel.Galloc.create space ~base_vpn:100 ~pages:16 ~policy:Unikernel.Galloc.Bump in
  ignore (Unikernel.Galloc.alloc arena 100);
  Alcotest.(check int) "one page" 1 (Mem.Addr_space.mapped_pages space);
  ignore (Unikernel.Galloc.alloc arena 8000);
  (* 100 + 8000 bytes = spans pages 0..1 of the arena. *)
  Alcotest.(check int) "two pages" 2 (Mem.Addr_space.mapped_pages space);
  Alcotest.(check int) "cursor" 8100 (Unikernel.Galloc.cursor arena)

let test_galloc_bump_overflow () =
  let f = frames () in
  let space = Mem.Addr_space.create f in
  let arena = Unikernel.Galloc.create space ~base_vpn:0 ~pages:1 ~policy:Unikernel.Galloc.Bump in
  Alcotest.(check bool) "overflow raises" true
    (match Unikernel.Galloc.alloc arena 5000 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_galloc_ring_wraps () =
  let f = frames () in
  let space = Mem.Addr_space.create f in
  let arena = Unikernel.Galloc.create space ~base_vpn:0 ~pages:4 ~policy:Unikernel.Galloc.Ring in
  (* Allocate 10 x 4096: wraps repeatedly, never maps more than the ring. *)
  for _ = 1 to 10 do
    ignore (Unikernel.Galloc.alloc arena 4096)
  done;
  Alcotest.(check bool) "bounded by ring size" true
    (Mem.Addr_space.mapped_pages space <= 4);
  Alcotest.(check int) "total recorded" 40960 (Unikernel.Galloc.used_bytes arena)

(* {1 Driver protocol} *)

let test_driver_roundtrip () =
  let cases =
    [ D.Init "function main(a) { return 1; }"; D.Run "{x: 1}"; D.Ping;
      D.Warm_net; D.Warm_exec; D.Checkpoint ]
  in
  List.iter
    (fun cmd ->
      match D.decode_command (D.encode_command cmd) with
      | Ok decoded -> Alcotest.(check bool) "roundtrip" true (decoded = cmd)
      | Error e -> Alcotest.fail e)
    cases;
  List.iter
    (fun r ->
      match D.decode_reply (D.encode_reply r) with
      | Ok decoded -> Alcotest.(check bool) "reply roundtrip" true (decoded = r)
      | Error e -> Alcotest.fail e)
    [ D.Ok_reply "{}"; D.Err_reply "boom"; D.Pong ]

let test_driver_rejects_garbage () =
  Alcotest.(check bool) "bad command" true
    (match D.decode_command "BLORP\nx" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad reply" true
    (match D.decode_reply "NOPE\n" with Error _ -> true | Ok _ -> false)

let test_hypercall_surface () =
  Alcotest.(check int) "12 hypercalls" 12 Unikernel.Hypercall.interface_size

(* {1 Guest harness} *)

type harness = {
  engine : Sim.Engine.t;
  space : Mem.Addr_space.t;
  listener : Net.Tcp.listener;
  breakpoints : string Sim.Channel.t;
  resume : unit Sim.Ivar.t ref;
  state : G.state option ref;
}

let make_harness ?(image = Unikernel.Image.node) () =
  let engine = Sim.Engine.create () in
  let f = frames () in
  let space = Mem.Addr_space.create f in
  let listener = Net.Tcp.listener ~port:9000 in
  let breakpoints = Sim.Channel.create () in
  let resume = ref (Sim.Ivar.create ()) in
  let hypercalls =
    {
      Unikernel.Hypercall.null with
      Unikernel.Hypercall.breakpoint =
        (fun label ->
          let gate = Sim.Ivar.create () in
          resume := gate;
          Sim.Channel.send breakpoints label;
          Sim.Ivar.read gate);
      clock_wall = (fun () -> Sim.Engine.now engine);
    }
  in
  let env =
    {
      G.image;
      space;
      listener;
      hypercalls;
      rng = Sim.Prng.create 99L;
      cpu_burn = Sim.Engine.sleep;
      compile_cache = Interp.Compile.Cache.create ();
    }
  in
  let state = ref None in
  Sim.Engine.spawn engine ~name:"guest" (fun () ->
      let s = G.boot env in
      state := Some s;
      G.serve s);
  { engine; space; listener; breakpoints; resume; state }

let await_breakpoint h = Sim.Channel.recv h.breakpoints

let resume_guest h = Sim.Ivar.fill !(h.resume) ()

let send_cmd conn cmd = Net.Tcp.send conn (D.encode_command cmd)

let recv_reply conn =
  match Net.Tcp.recv conn with
  | None -> Alcotest.fail "connection closed"
  | Some m -> (
      match D.decode_reply m.Net.Tcp.data with
      | Ok r -> r
      | Error e -> Alcotest.fail e)

let test_boot_writes_image_and_breaks () =
  let h = make_harness () in
  let label = ref "" and pages = ref 0 and t = ref 0.0 in
  Sim.Engine.spawn h.engine ~name:"host" (fun () ->
      label := await_breakpoint h;
      pages := Mem.Addr_space.mapped_pages h.space;
      t := Sim.Engine.now h.engine);
  Sim.Engine.run h.engine;
  Alcotest.(check string) "breakpoint label" "driver-started" !label;
  Alcotest.(check int) "image pages mapped"
    (Unikernel.Image.total_pages Unikernel.Image.node)
    !pages;
  Alcotest.(check bool) "boot took seconds" true (!t > 2.0)

(* Boot, resume past driver-started, connect, and run [f] with the conn. *)
let with_running_guest f =
  let h = make_harness () in
  let result = ref None in
  Sim.Engine.spawn h.engine ~name:"host" (fun () ->
      let label = await_breakpoint h in
      Alcotest.(check string) "driver up" "driver-started" label;
      resume_guest h;
      match Net.Tcp.connect ~link:Net.Netconf.internal h.listener with
      | None -> Alcotest.fail "connect failed"
      | Some conn -> result := Some (f h conn));
  Sim.Engine.run h.engine;
  match !result with
  | None -> Alcotest.fail "host process did not finish"
  | Some v -> v

let test_ping () =
  let reply = with_running_guest (fun _h conn ->
      send_cmd conn D.Ping;
      recv_reply conn)
  in
  Alcotest.(check bool) "pong" true (reply = D.Pong)

let test_init_then_run () =
  let result =
    with_running_guest (fun h conn ->
        send_cmd conn (D.Init "function main(args) { return args.a + 1; }");
        let label = await_breakpoint h in
        Alcotest.(check string) "compile breakpoint" "compile-ok" label;
        resume_guest h;
        send_cmd conn (D.Run "{a: 41}");
        recv_reply conn)
  in
  Alcotest.(check bool) "result" true (result = D.Ok_reply "42")

let test_init_error_breakpoint () =
  with_running_guest (fun h conn ->
      send_cmd conn (D.Init "function main(");
      let label = await_breakpoint h in
      Alcotest.(check bool) "compile error label" true
        (String.length label > 11 && String.sub label 0 11 = "compile-err");
      resume_guest h)

let test_run_without_init_errors () =
  let reply =
    with_running_guest (fun _h conn ->
        send_cmd conn (D.Run "null");
        recv_reply conn)
  in
  match reply with
  | D.Err_reply _ -> ()
  | _ -> Alcotest.fail "expected error"

let test_warmup_sets_warmth () =
  with_running_guest (fun h conn ->
      (match !(h.state) with
      | Some s ->
          let w = G.warmth s in
          (* The accept has already fired when we get here. *)
          Alcotest.(check bool) "send cold" false w.G.net_send;
          Alcotest.(check bool) "compiler cold" false w.G.compiler
      | None -> Alcotest.fail "no state");
      send_cmd conn D.Warm_net;
      (match recv_reply conn with
      | D.Ok_reply _ -> ()
      | _ -> Alcotest.fail "warm_net failed");
      send_cmd conn D.Warm_exec;
      (match recv_reply conn with
      | D.Ok_reply _ -> ()
      | _ -> Alcotest.fail "warm_exec failed");
      match !(h.state) with
      | Some s ->
          let w = G.warmth s in
          Alcotest.(check bool) "pool warm" true w.G.net_pool;
          Alcotest.(check bool) "send warm" true w.G.net_send;
          Alcotest.(check bool) "compiler warm" true w.G.compiler;
          Alcotest.(check bool) "exec warm" true w.G.exec_cache
      | None -> Alcotest.fail "no state")

let test_first_use_costs_paid_once () =
  (* Two Warm_net requests: the second reply is cheaper by the send-path
     first-use time. *)
  let d1, d2 =
    with_running_guest (fun h conn ->
        ignore h;
        let engine = Sim.Engine.self () in
        let t0 = Sim.Engine.now engine in
        send_cmd conn D.Warm_net;
        ignore (recv_reply conn);
        let t1 = Sim.Engine.now engine in
        send_cmd conn D.Warm_net;
        ignore (recv_reply conn);
        let t2 = Sim.Engine.now engine in
        (t1 -. t0, t2 -. t1))
  in
  Alcotest.(check bool) "first-use surcharge" true
    (d1 -. d2 > 0.8 *. C.net_send_init_time)

let test_capture_restore_isolates () =
  (* Capture after compiling a stateful function; restore twice; the two
     restored guests must not share interpreter state. *)
  with_running_guest (fun h conn ->
      send_cmd conn
        (D.Init
           "let n = 0; function main(args) { n = n + 1; return n; }");
      ignore (await_breakpoint h);
      (* While the guest is parked at the breakpoint, capture. *)
      let snap =
        match !(h.state) with
        | Some s -> G.capture s
        | None -> Alcotest.fail "no state"
      in
      resume_guest h;
      (* Run the original once: its counter moves to 1. *)
      send_cmd conn (D.Run "null");
      (match recv_reply conn with
      | D.Ok_reply r -> Alcotest.(check string) "original run" "1" r
      | _ -> Alcotest.fail "run failed");
      (* Restore two fresh guests from the captured template. *)
      let f2 = frames () in
      let restored_env name port =
        ignore name;
        {
          G.image = Unikernel.Image.node;
          space = Mem.Addr_space.create f2;
          listener = Net.Tcp.listener ~port;
          hypercalls = Unikernel.Hypercall.null;
          rng = Sim.Prng.create 5L;
          cpu_burn = Sim.Engine.sleep;
          compile_cache = Interp.Compile.Cache.create ();
        }
      in
      let s1 = G.restore (restored_env "a" 9001) snap in
      let s2 = G.restore (restored_env "b" 9002) snap in
      let w = G.warmth s1 in
      Alcotest.(check bool) "restored compiler warmth" true w.G.compiler;
      Alcotest.(check (option string)) "program follows"
        (Some "let n = 0; function main(args) { n = n + 1; return n; }")
        (G.program_source s1);
      ignore s2)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "unikernel"
    [
      ( "galloc",
        [
          case "bump touches pages" test_galloc_bump_touches_pages;
          case "bump overflow" test_galloc_bump_overflow;
          case "ring wraps" test_galloc_ring_wraps;
        ] );
      ( "driver",
        [
          case "roundtrip" test_driver_roundtrip;
          case "rejects garbage" test_driver_rejects_garbage;
          case "hypercall surface" test_hypercall_surface;
        ] );
      ( "guest",
        [
          case "boot writes image" test_boot_writes_image_and_breaks;
          case "ping" test_ping;
          case "init then run" test_init_then_run;
          case "init error breakpoint" test_init_error_breakpoint;
          case "run without init" test_run_without_init_errors;
          case "warmup sets warmth" test_warmup_sets_warmth;
          case "first-use paid once" test_first_use_costs_paid_once;
          case "capture/restore isolates" test_capture_restore_isolates;
        ] );
    ]
