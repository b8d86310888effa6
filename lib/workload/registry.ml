open Hwf_sim
open Hwf_core
open Hwf_adversary
open Hwf_lint

let programs_of (s : Explore.scenario) () = (s.Explore.make ()).Explore.programs

let fig3 () =
  let layout = Layout.uniform ~processors:1 ~per_processor:3 in
  let b =
    Scenarios.consensus ~name:"fig3" ~impl:Scenarios.Fig3
      ~quantum:Bounds.uniprocessor_consensus_quantum ~layout
  in
  {
    Lint.name = "fig3";
    config = b.Scenarios.scenario.Explore.config;
    make = programs_of b.Scenarios.scenario;
    expect = Checks.Exact Uni_consensus.statements_per_decide;
    min_quantum = Bounds.uniprocessor_consensus_quantum;
    theorem = "Theorem 1";
    fair_only = false;
    step_limit = 100_000;
  }

let fig5 () =
  let layout = [ (0, 1); (0, 2); (0, 3) ] in
  let v = Layout.levels layout in
  let script = Scenarios.random_script ~seed:5 ~n:(List.length layout) ~ops_per:2 in
  let s = Scenarios.hybrid_cas ~name:"fig5" ~quantum:600 ~layout ~script in
  {
    Lint.name = "fig5";
    config = s.Explore.config;
    make = programs_of s;
    expect = Checks.At_most (Bounds.fig5_stmt_const * v);
    min_quantum = Bounds.fig5_stmt_const;
    theorem = "Theorem 2";
    fair_only = false;
    step_limit = 100_000;
  }

let fig7 () =
  let layout = Layout.uniform ~processors:2 ~per_processor:2 in
  let consensus_number = 2 in
  let b =
    Scenarios.consensus ~name:"fig7"
      ~impl:(Scenarios.Fig7 { consensus_number })
      ~quantum:4000 ~layout
  in
  let config = b.Scenarios.scenario.Explore.config in
  let p = config.Config.processors in
  let k = Bounds.fig7_k ~p ~consensus_number in
  let l = Bounds.levels ~m:(Config.max_per_processor config) ~p ~k in
  {
    Lint.name = "fig7";
    config;
    make = programs_of b.Scenarios.scenario;
    expect = Checks.At_most (Bounds.fig7_stmt_const * l);
    min_quantum =
      (match Bounds.universal_quantum ~c:Bounds.fig7_stmt_const ~p ~consensus_number with
      | Some q -> q
      | None -> invalid_arg "Registry.fig7: consensus_number < processors");
    theorem = "Theorem 4";
    fair_only = false;
    step_limit = 200_000;
  }

let fig9 () =
  let layout = Layout.uniform ~processors:2 ~per_processor:2 in
  let b =
    Scenarios.consensus ~name:"fig9"
      ~impl:(Scenarios.Fig9 { consensus_number = 2 })
      ~quantum:4000 ~layout
  in
  {
    Lint.name = "fig9";
    config = b.Scenarios.scenario.Explore.config;
    make = programs_of b.Scenarios.scenario;
    expect = Checks.Helping;
    min_quantum = 1;
    theorem = "Sec. 5 (fair scheduling)";
    fair_only = true;
    step_limit = 200_000;
  }

let universal () =
  let pris = [ 1; 1; 1 ] in
  let s = Scenarios.universal_counter_uni ~name:"universal" ~quantum:3000 ~pris in
  {
    Lint.name = "universal";
    config = s.Explore.config;
    make = programs_of s;
    expect = Checks.At_most (Bounds.universal_stmt_const * List.length pris);
    min_quantum = Bounds.uniprocessor_consensus_quantum;
    theorem = "Theorem 1 (per consensus cell)";
    fair_only = false;
    step_limit = 100_000;
  }

let static_relation (s : Explore.scenario) =
  (* The certifier replays [make] on its own; thread each fresh
     instance's verdict closure through so data escapes into the
     harness check are caught, not just trace divergences. *)
  let current_check = ref (fun (_ : Engine.result) -> Ok ()) in
  let make () =
    let i = s.make () in
    current_check := i.Explore.check;
    i.Explore.programs
  in
  let spec =
    {
      Lint.name = s.name;
      config = s.config;
      make;
      expect = Checks.Helping;
      min_quantum = 1;
      theorem = "independence oracle";
      fair_only = true;
      step_limit = 8_000_000;
    }
  in
  Indep.certified_relation ~check:(fun r -> !current_check r) ~config:s.config ~make
    (Lint.run spec)
  |> Result.map (fun (t, cert) ->
         ({ Explore.rname = "static"; rel = Indep.relation t }, Indep.summary t, cert))

let all () = [ fig3 (); fig5 (); fig7 (); fig9 (); universal () ]

let names = [ "fig3"; "fig5"; "fig7"; "fig9"; "universal" ]

let find name =
  match name with
  | "fig3" -> Some (fig3 ())
  | "fig5" -> Some (fig5 ())
  | "fig7" -> Some (fig7 ())
  | "fig9" -> Some (fig9 ())
  | "universal" -> Some (universal ())
  | _ -> None
