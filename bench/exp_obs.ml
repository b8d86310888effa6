(* E18 — the structured-export demo.

   One canonical deterministic run (Fig. 3, quantum 8, two
   equal-priority processes, first-fit policy) observed through the
   full Hwf_obs.Metrics collector behind Metrics.sink. `obs` prints its
   metrics table; `bench/main.exe --trace-out F / --metrics-out F`
   (with any experiment selection) writes the same run through the
   JSONL writers the CLI uses. The cost of observing a run is measured
   by E19's `observer` column and gated there. *)

open Hwf_sim
open Hwf_workload

(* Small and free of seeds, so repeated invocations produce identical
   bytes. *)
let demo_run () =
  let layout = [ (0, 1); (0, 1) ] in
  let config = Layout.to_config ~quantum:8 layout in
  let b = Scenarios.consensus ~name:"bench.demo" ~impl:Scenarios.Fig3 ~quantum:8 ~layout in
  let inst = b.Scenarios.scenario.Hwf_adversary.Explore.make () in
  let collector = Hwf_obs.Metrics.collector config in
  let r =
    Engine.run ~step_limit:1_000_000
      ~sink:(Hwf_obs.Metrics.sink collector)
      ~config ~policy:Policy.first inst.Hwf_adversary.Explore.programs
  in
  (r.Engine.trace, Hwf_obs.Metrics.finish collector)

let run ~quick:_ =
  Tbl.section "E18: structured-export demo (canonical fig3 run)";
  Fmt.pr "%a@." Hwf_obs.Metrics.pp (snd (demo_run ()));
  Tbl.note "--trace-out F / --metrics-out F write this run as JSONL"

let export ~trace_out ~metrics_out =
  if trace_out <> None || metrics_out <> None then begin
    let trace, metrics = demo_run () in
    Option.iter
      (fun path ->
        Hwf_obs.Jsonl.write_trace ~path trace;
        Tbl.note "trace: %s (canonical fig3 demo run)" path)
      trace_out;
    Option.iter
      (fun path ->
        Hwf_obs.Jsonl.write_metrics ~path metrics;
        Tbl.note "metrics: %s (canonical fig3 demo run)" path)
      metrics_out
  end
