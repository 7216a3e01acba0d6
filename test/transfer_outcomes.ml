(* Prints every transfer scenario of Transfer_scenarios: a dune rule diffs
   the output against golden/transfer_outcomes.golden. *)

let () =
  List.iter
    (fun s -> List.iter print_endline (Transfer_scenarios.render s))
    (Transfer_scenarios.all ())
