type t = {
  quiesce_deadline_ns : int option;
  update_deadline_ns : int option;
  retries : int;
  retry_backoff_ns : int;
  fault_seed : int option;
  dirty_only : bool;
  precopy : bool;
  precopy_max_rounds : int;
  precopy_threshold_words : int;
  transfer_workers : int;
  transfer_remap : bool;
  slo_downtime_ns : int option;
  slo_total_ns : int option;
  image_dir : string option;
  request_parking : bool;
  drain_ns : int;
  concurrent_transfer : bool;
}

let default =
  {
    quiesce_deadline_ns = None;
    update_deadline_ns = None;
    retries = 0;
    retry_backoff_ns = 100_000_000;
    fault_seed = None;
    dirty_only = true;
    precopy = false;
    precopy_max_rounds = 4;
    precopy_threshold_words = 512;
    transfer_workers = 1;
    transfer_remap = false;
    slo_downtime_ns = None;
    slo_total_ns = None;
    image_dir = None;
    request_parking = false;
    drain_ns = 2_000_000;
    concurrent_transfer = false;
  }

let with_quiesce_deadline_ns q t = { t with quiesce_deadline_ns = q }

let with_deadlines ~quiesce_ns ~update_ns t =
  { t with quiesce_deadline_ns = quiesce_ns; update_deadline_ns = update_ns }

let with_retries ?backoff_ns n t =
  let backoff_ns = Option.value backoff_ns ~default:t.retry_backoff_ns in
  if n < 0 then invalid_arg "Policy.with_retries: negative count";
  if backoff_ns < 0 then invalid_arg "Policy.with_retries: negative backoff";
  { t with retries = n; retry_backoff_ns = backoff_ns }

let with_fault_seed s t = { t with fault_seed = s }
let with_dirty_only d t = { t with dirty_only = d }

let with_precopy ?max_rounds ?threshold_words enabled t =
  let max_rounds = Option.value max_rounds ~default:t.precopy_max_rounds in
  let threshold_words = Option.value threshold_words ~default:t.precopy_threshold_words in
  if max_rounds < 1 then invalid_arg "Policy.with_precopy: max_rounds must be >= 1";
  if threshold_words < 0 then invalid_arg "Policy.with_precopy: negative threshold";
  {
    t with
    precopy = enabled;
    precopy_max_rounds = max_rounds;
    precopy_threshold_words = threshold_words;
  }

let with_transfer_workers n t =
  if n < 1 then invalid_arg "Policy.with_transfer_workers: workers must be >= 1";
  { t with transfer_workers = n }

let with_transfer_remap r t = { t with transfer_remap = r }

let with_slo ~downtime_ns ~total_ns t =
  (match (downtime_ns, total_ns) with
  | Some d, _ when d <= 0 -> invalid_arg "Policy.with_slo: downtime budget must be positive"
  | _, Some ut when ut <= 0 -> invalid_arg "Policy.with_slo: total budget must be positive"
  | _ -> ());
  { t with slo_downtime_ns = downtime_ns; slo_total_ns = total_ns }

let with_image_dir d t = { t with image_dir = d }

let with_request_parking ?drain_ns enabled t =
  let drain_ns = Option.value drain_ns ~default:t.drain_ns in
  if drain_ns < 0 then invalid_arg "Policy.with_request_parking: negative drain budget";
  { t with request_parking = enabled; drain_ns }

let with_concurrent_transfer c t = { t with concurrent_transfer = c }

(* Key=value rendering embedded in checkpoint images (section POLI) so an
   offline replay can re-run an update under the exact policy that
   produced it. Only scalar fields round-trip; [image_dir] deliberately
   does not (a replayed update must not re-snapshot images). *)
let to_kv t =
  let opt = function None -> "-" | Some n -> string_of_int n in
  String.concat " "
    [
      "quiesce_deadline_ns=" ^ opt t.quiesce_deadline_ns;
      "update_deadline_ns=" ^ opt t.update_deadline_ns;
      "retries=" ^ string_of_int t.retries;
      "retry_backoff_ns=" ^ string_of_int t.retry_backoff_ns;
      "fault_seed=" ^ opt t.fault_seed;
      "dirty_only=" ^ string_of_bool t.dirty_only;
      "precopy=" ^ string_of_bool t.precopy;
      "precopy_max_rounds=" ^ string_of_int t.precopy_max_rounds;
      "precopy_threshold_words=" ^ string_of_int t.precopy_threshold_words;
      "transfer_workers=" ^ string_of_int t.transfer_workers;
      "transfer_remap=" ^ string_of_bool t.transfer_remap;
      "slo_downtime_ns=" ^ opt t.slo_downtime_ns;
      "slo_total_ns=" ^ opt t.slo_total_ns;
      "request_parking=" ^ string_of_bool t.request_parking;
      "drain_ns=" ^ string_of_int t.drain_ns;
      "concurrent_transfer=" ^ string_of_bool t.concurrent_transfer;
    ]

(* The lower bounds are those the [with_*] builders enforce, plus
   non-negative deadlines. A key that is absent keeps [base]'s value. *)
let of_kv ~base s =
  let fields =
    List.filter_map
      (fun tok ->
        match String.index_opt tok '=' with
        | None -> None
        | Some i ->
            Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1)))
      (String.split_on_char ' ' s)
  in
  let fail k v what = failwith (Printf.sprintf "Policy.of_kv: %s=%s %s" k v what) in
  let int ?(min = min_int) k v =
    match int_of_string_opt v with
    | None -> fail k v "is not an integer"
    | Some n when n < min -> fail k v (Printf.sprintf "is below %d" min)
    | Some n -> n
  in
  let field k d read = match List.assoc_opt k fields with None -> d | Some v -> read v in
  let opt ?min k d = field k d (function "-" -> None | v -> Some (int ?min k v))
  and scalar ?min k d = field k d (int ?min k)
  and flag k d =
    field k d (fun v ->
        match bool_of_string_opt v with Some b -> b | None -> fail k v "is not a boolean")
  in
  try
    Ok
      {
        base with
        quiesce_deadline_ns = opt ~min:0 "quiesce_deadline_ns" base.quiesce_deadline_ns;
        update_deadline_ns = opt ~min:0 "update_deadline_ns" base.update_deadline_ns;
        retries = scalar ~min:0 "retries" base.retries;
        retry_backoff_ns = scalar ~min:0 "retry_backoff_ns" base.retry_backoff_ns;
        fault_seed = opt "fault_seed" base.fault_seed;
        dirty_only = flag "dirty_only" base.dirty_only;
        precopy = flag "precopy" base.precopy;
        precopy_max_rounds = scalar ~min:1 "precopy_max_rounds" base.precopy_max_rounds;
        precopy_threshold_words =
          scalar ~min:0 "precopy_threshold_words" base.precopy_threshold_words;
        transfer_workers = scalar ~min:1 "transfer_workers" base.transfer_workers;
        transfer_remap = flag "transfer_remap" base.transfer_remap;
        slo_downtime_ns = opt ~min:1 "slo_downtime_ns" base.slo_downtime_ns;
        slo_total_ns = opt ~min:1 "slo_total_ns" base.slo_total_ns;
        request_parking = flag "request_parking" base.request_parking;
        drain_ns = scalar ~min:0 "drain_ns" base.drain_ns;
        concurrent_transfer = flag "concurrent_transfer" base.concurrent_transfer;
      }
  with Stdlib.Failure msg -> Error msg
