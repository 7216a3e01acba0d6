(** The v1 ctl wire protocol: commands, frame encoding and decoding.

    One module owns both directions of the socket protocol so the manager's
    controller thread and the {!Ctl} client cannot drift apart:

    - requests are ["HELLO <version>[ <command>]"]; any other frame is
      refused with ["ERR hello required"];
    - commands are spelled by {!command_to_string} and decoded by
      {!command_of_string};
    - replies are ["OK"], ["OK <inline>"], ["OK\npayload"] or
      ["ERR <reason>"]. *)

val protocol_version : int
(** The ctl protocol version this build speaks (currently 1). *)

type error =
  | Version_mismatch of { client : int; server : int }
      (** The server refused the HELLO with [ERR version <server>]. *)
  | Refused of string  (** The server replied [ERR <reason>]. *)
  | Transport of string  (** Connection failure or an unparseable frame. *)

val pp_error : Format.formatter -> error -> unit

(** {1 Commands} *)

type command =
  | Update  (** Perform a live update; replies when it commits or rolls back. *)
  | Stats  (** Rendered metrics snapshot; never waits on an update. *)
  | Explain of int option
      (** Flight record as JSON ([None] = newest, [Some n] with [n] = 1 the
          newest). *)
  | Deadlines of { quiesce_ns : int option; update_ns : int option }
      (** Set ([None] clears) the lineage's default deadlines. *)
  | Retry of { retries : int; backoff_ns : int }
  | Fault_arm of int option
      (** Arm a seeded fault plan for subsequent updates; [None] disarms. *)
  | Precopy of { enabled : bool; max_rounds : int option; threshold_words : int option }
  | Workers of int  (** Transfer worker-pool size. *)
  | Remap of bool  (** Zero-copy page remap on/off. *)
  | Slo of { downtime_ns : int option; total_ns : int option }
  | Parking of { enabled : bool; drain_ns : int option }
      (** Request parking on/off; [drain_ns] sets the drain budget. *)
  | Save of string
      (** Write a persistent checkpoint image of the running program to the
          given {e host} path; replies [OK <fingerprint>]. *)
  | Restore of string
      (** Install the image at the given host path over the running
          program in place; replies
          [OK paired=<n> skipped=<n> unmatched=<n> fingerprint=<f>]. *)
  | Raw of string
      (** Escape hatch: send the string verbatim (e.g. a [FLEET ...]
          command on an orchestrator socket). Never produced by
          {!command_of_string}. *)

val command_to_string : command -> string
(** The wire spelling of a command. *)

val command_of_string : string -> (command, string) result
(** Decode a command. Words are separated by spaces; the verb must match
    exactly. [Error "unknown command"] for an unknown verb, [Error "usage:
    ..."] for malformed or out-of-range arguments — the reason the server
    replies with. Total: never raises. For every command [c] that decodes,
    [command_to_string] of the decoded value equals [command_to_string c]. *)

(** {1 Server side} *)

val ok : string
(** The bare success frame, ["OK"]. *)

val ok_inline : string -> string
(** [ok_inline v] is ["OK <v>"] — short single-line results. *)

val ok_payload : string -> string
(** [ok_payload p] is ["OK\n<p>"] — multi-line payloads (STATS, EXPLAIN). *)

val err : string -> string
(** [err reason] is ["ERR <reason>"]. *)

val parse_request : string -> (int * string option, string) result
(** Classify an incoming request frame: [Ok (v, cmd)] for
    ["HELLO <v>[ <cmd>]"] (no command, or an empty one, yields [None] /
    [Some ""] — the version handshake); [Error "malformed hello"] when the
    version is not an integer; [Error "hello required"] for any frame that
    does not open with HELLO. *)

(** {1 Client side} *)

val hello_frame : version:int -> command:string -> string
(** Encode a versioned request; an empty [command] is the bare handshake. *)

val parse_reply : version:int -> string -> (string, error) result
(** Decode a versioned reply. [Ok payload] for the three OK forms (the bare
    ["OK"] yields [""]); [Error (Version_mismatch _)] for
    ["ERR version <n>"]; [Error (Refused _)] for other [ERR] frames;
    [Error (Transport _)] for anything else. *)
