(* repro — run individual paper experiments by id (see DESIGN.md §4).

   Usage:
     repro --list
     repro fig1.1 tab5.2 ...
     repro all *)

open Cmdliner

module Experiments = Pdb_harness.Experiments

let run ids list_only =
  if list_only then begin
    print_endline "available experiments:";
    List.iter
      (fun (e : Experiments.experiment) ->
        Printf.printf "  %-10s %s\n" e.Experiments.id e.Experiments.title)
      Experiments.all;
    0
  end
  else
    match snd (Experiments.run_ids ids) with
    | Ok () -> 0
    | Error msg ->
      prerr_endline ("repro: " ^ msg);
      1

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
         ~doc:"Experiment ids (fig1.1, tab5.2, ...) or 'all'.")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List available experiments.")

let cmd =
  Cmd.v
    (Cmd.info "repro"
       ~doc:"Regenerate the PebblesDB paper's tables and figures")
    Term.(const run $ ids $ list_flag)

let () = exit (Cmd.eval' cmd)
