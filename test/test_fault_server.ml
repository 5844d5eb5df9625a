(* Kill-point sweeps over the §11 server request path: the three
   adversaries (kill whichever thread is acting, kill the accept loop
   mid-accept, kill a connection worker mid-request), bounded so the
   suite stays fast — the full sweep runs via `chrun sweep --suite
   server`. *)

open Fault

let sweep_target target =
  Helpers.case
    (Fmt.str "server survives kills into %a" Plan.pp_target target)
    (fun () ->
      let r = Sweep.kills ~max_points:40 ~target Cases.server in
      Alcotest.check Alcotest.bool "has kill points" true
        (r.Sweep.points > 0);
      match r.Sweep.failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%d failures, first: %a — %s"
            (List.length r.Sweep.failures)
            Plan.pp f.Sweep.shrunk.kill f.Sweep.reason)

let suites =
  [ ("fault:server", List.map sweep_target Cases.server_targets) ]
