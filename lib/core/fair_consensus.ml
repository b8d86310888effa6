open Hwf_sim

type 'a t = {
  name : string;
  config : Config.t;
  output : 'a option Shared.t;
  elections : int Uni_consensus.t array array;  (* [P][V] *)
  global : 'a Multi_consensus.t;
  mutable lost : int;
}

let make ~config ~name ~consensus_number =
  let p = config.Config.processors in
  let v = config.Config.levels in
  {
    name;
    config;
    output = Shared.make (name ^ ".Output") None;
    elections =
      Array.init p (fun i ->
          Array.init v (fun w ->
              Uni_consensus.make
                (Shared.subscript2 (name ^ ".elect") (i + 1) (w + 1))));
    global = Multi_consensus.make ~config ~name:(name ^ ".global") ~consensus_number ();
    lost = 0;
  }

let decide t ~pid input =
  let i = t.config.Config.procs.(pid).Proc.processor in
  let v = t.config.Config.procs.(pid).Proc.priority in
  (* line 1: elect one process per (processor, level) *)
  if Uni_consensus.decide t.elections.(i).(v - 1) pid <> pid then begin
    t.lost <- t.lost + 1;
    (* lines 2-3: spin until the winners publish *)
    let rec wait () =
      match Shared.read t.output with None -> wait () | Some r -> r
    in
    wait ()
  end
  else begin
    (* lines 4-6 *)
    let output = Multi_consensus.decide t.global ~pid input in
    Shared.write t.output (Some output);
    output
  end

let elections_lost t = t.lost
