(** The v1 ctl wire protocol: commands, frame encoding and decoding.

    One module owns both directions of the socket protocol and the one
    command grammar, so the manager's controller thread, the fleet
    coordinator and the {!Ctl} client cannot drift apart:

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

(** The fleet coordinator's [FLEET ...] family; a manager answers each
    with ["ERR unknown command"]. *)
type fleet_command =
  | Status  (** Headline, policy and one line per instance. *)
  | Rollout  (** Canary-gated rolling update; replies [OK HALTED|COMPLETED]. *)
  | Explain  (** The last rollout's fleet flight summary as JSON. *)
  | Save of { instance : int; path : string }  (** Replies [OK <fingerprint>]. *)
  | Migrate of { instance : int; path : string }
      (** Move the instance to a fresh kernel through an image at [path]. *)

type command =
  | Update  (** Perform a live update; replies when it commits or rolls back. *)
  | Stats  (** Rendered metrics snapshot; never waits on an update. *)
  | Explain of int option
      (** Flight record as JSON ([None] = newest, [Some n] with [n] = 1 the
          newest). *)
  | Policy of string
      (** [POLICY <key>=<value> ...], carrying the [key=value] words: set
          the named fields of the lineage's policy for subsequent updates.
          The keys are the ones {!Policy.to_kv} renders, each at most
          once; the manager decodes the values with {!Policy.of_kv} over
          its current policy, so an absent key keeps its value and a
          rejected value leaves the policy unchanged and answers [ERR]
          naming the key. *)
  | Save of string
      (** Write a persistent checkpoint image of the running program to the
          given {e host} path; replies [OK <fingerprint>]. *)
  | Restore of string
      (** Install the image at the given host path over the running
          program in place; replies
          [OK paired=<n> skipped=<n> unmatched=<n> fingerprint=<f>]. *)
  | Fleet of fleet_command  (** [FLEET STATUS|ROLLOUT|EXPLAIN|SAVE|MIGRATE]. *)

val command_to_string : command -> string
(** The wire spelling of a command. *)

val command_of_string : string -> (command, string) result
(** Decode a command. Words are separated by spaces; the verb must match
    exactly. [Error "unknown command"] for an unknown verb, [Error "usage:
    ..."] for malformed or out-of-range arguments — the reason the server
    replies with. [POLICY] values are not checked here: {!Policy.of_kv}
    checks them when the manager applies the command. Total: never
    raises. For every command [c] that decodes, [command_to_string] of the
    decoded value equals [command_to_string c]. *)

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
