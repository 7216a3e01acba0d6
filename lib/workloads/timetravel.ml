(* Offline time travel over persistent checkpoint images. An image snapped
   at an update's quiescent point holds everything needed to re-run that
   update outside production: the program bytes, the exact policy, the
   target version tag and (once the attempt finished) the flight record it
   produced. Restoring the image into a fresh kernel and re-running the
   update is fully deterministic, so the offline verdict either reproduces
   the recorded one — confirming the flight record explains the outcome —
   or it does not, which is itself a finding (the rollback depended on
   state outside the checkpoint). *)

module K = Mcr_simos.Kernel
module P = Mcr_program.Progdef
module Manager = Mcr_core.Manager
module Policy = Mcr_core.Policy
module Flight = Mcr_obs.Flight
module Image = Mcr_image.Image

(* Images record the progdef's program name (e.g. "httpd"), which is not
   always the testbed's display name ("Apache httpd") — accept either. *)
let server_of_prog prog =
  List.find_opt
    (fun s ->
      Testbed.name s = prog || (Testbed.base_version s).P.prog = prog)
    Testbed.all

let version_of_tag server tag =
  List.find_opt
    (fun (v : P.version) -> v.P.version_tag = tag)
    (Testbed.version_series server)

let restore img =
  match server_of_prog (Image.prog img) with
  | None -> Error (Printf.sprintf "image holds unknown program %S" (Image.prog img))
  | Some server -> (
      match version_of_tag server (Image.version_tag img) with
      | None ->
          Error
            (Printf.sprintf "no %s version tagged %s" (Image.prog img)
               (Image.version_tag img))
      | Some version -> (
          let kernel = K.create () in
          let m = Testbed.launch ~version kernel server in
          match Manager.restore_image m img with
          | Error e -> Error e
          | Ok report -> Ok (kernel, m, report)))

type verdict = {
  v_reproduced : bool;
  v_expected_success : bool;
  v_got_success : bool;
  v_expected_reason : string option;
  v_got_reason : string option;
  v_expected_stage : string option;
  v_got_stage : string option;
  v_fingerprint : int;
}

let pp_verdict ppf v =
  let opt = Option.value ~default:"-" in
  Format.fprintf ppf
    "@[<v>recorded: %s%s@,replayed: %s%s@,verdict: %s@]"
    (if v.v_expected_success then "COMMIT" else "ROLLBACK")
    (match v.v_expected_reason with
    | None -> ""
    | Some r -> Printf.sprintf " (%s @ %s)" r (opt v.v_expected_stage))
    (if v.v_got_success then "COMMIT" else "ROLLBACK")
    (match v.v_got_reason with
    | None -> ""
    | Some r -> Printf.sprintf " (%s @ %s)" r (opt v.v_got_stage))
    (if v.v_reproduced then "REPRODUCED" else "NOT REPRODUCED")

let explanation_parts = function
  | None -> (None, None)
  | Some (e : Flight.explanation) -> (Some e.Flight.e_reason, Some e.Flight.e_stage)

let replay img =
  match Image.flight_json img with
  | None -> Error "image carries no flight record (not snapped by an update attempt)"
  | Some flight_json -> (
      match Flight.of_json flight_json with
      | Error e -> Error ("embedded flight record does not parse: " ^ e)
      | Ok recorded -> (
          match Image.target_tag img with
          | None -> Error "image carries no update target tag"
          | Some target -> (
              match restore img with
              | Error e -> Error e
              | Ok (_kernel, m, _install) -> (
                  match server_of_prog (Image.prog img) with
                  | None -> Error "unreachable: program vanished after restore"
                  | Some server -> (
                      match version_of_tag server target with
                      | None ->
                          Error
                            (Printf.sprintf "no %s version tagged %s" (Image.prog img)
                               target)
                      | Some target_version ->
                          let policy =
                            match Image.policy_text img with
                            | None -> Policy.default
                            | Some text -> (
                                match Policy.of_kv ~base:Policy.default text with
                                | Ok p -> p
                                | Error _ -> Policy.default)
                          in
                          let _, report = Manager.update m ~policy target_version in
                          let expected_reason, expected_stage =
                            explanation_parts recorded.Flight.f_explanation
                          in
                          let got_reason, got_stage =
                            explanation_parts report.Manager.flight.Flight.f_explanation
                          in
                          let reproduced =
                            report.Manager.success = recorded.Flight.f_success
                            && (recorded.Flight.f_success
                               || (expected_reason = got_reason
                                  && expected_stage = got_stage))
                          in
                          Ok
                            {
                              v_reproduced = reproduced;
                              v_expected_success = recorded.Flight.f_success;
                              v_got_success = report.Manager.success;
                              v_expected_reason = expected_reason;
                              v_got_reason = got_reason;
                              v_expected_stage = expected_stage;
                              v_got_stage = got_stage;
                              v_fingerprint = Image.fingerprint img;
                            })))))

let replay_path ~path =
  match Image.read ~path with
  | Error e -> Error (Image.error_to_string e)
  | Ok img -> replay img
