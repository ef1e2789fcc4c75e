(** The command-line front door both lint passes share: the flag loop,
    the baseline, the JSON and human reports and the exit codes. A lint
    binary names itself and its own value flags, runs its analysis and
    hands the result to {!finish}; everything the two tools print alike
    is printed here. *)

type options = {
  tool : string;  (** prefix of every message, e.g. ["stochlint"] *)
  out : Stochobs.Writer.t;  (** the report's lines *)
  err : Stochobs.Writer.t;  (** errors, warnings and usage *)
  json : bool;
  quiet : bool;
  context : Rules.context option;
  baseline_file : string option;
  baseline : Baseline.t;  (** empty without [--baseline] *)
  update_baseline : bool;
  roots : string list;  (** positional arguments, in order *)
  values : (string * string) list;
      (** the tool's own value flags as (flag, value), last given first *)
}

val parse :
  tool:string ->
  usage:string ->
  ?value_flags:string list ->
  out:Stochobs.Writer.t ->
  err:Stochobs.Writer.t ->
  string array ->
  options
(** Read [argv]: [--json], [--quiet], [--update-baseline],
    [--baseline FILE], [--context CTX] and each of [value_flags] with
    its value; other arguments starting with [--] are unknown options,
    the rest are roots. [-h]/[--help], an unknown option or a bad
    context print [usage] to [err] and exit 2. The baseline is loaded
    here, once; a load error exits 2, except that a missing file is
    allowed under [--update-baseline], which is about to write it. *)

type run = {
  counts : (string * int) list;
      (** the tool's counts, between ["version"] and ["findings"] in
          the JSON report *)
  findings : Finding.t list;  (** every finding, before the baseline *)
  suppressed : int;  (** findings silenced inline *)
  errors_key : string;  (** JSON key of the error list *)
  error_verb : string;  (** e.g. ["cannot parse"] in an error's line *)
  errors : Finding.input_error list;
  wrote_note : string;
      (** appended inside the parentheses of the [--update-baseline]
          line, after ["N findings grandfathered"] *)
  summary : findings:string -> baselined:int -> string;
      (** the human summary line after the tool name, given
          ["N findings (E errors, W warnings)"] for the kept findings *)
}

val finish : options -> run -> 'a
(** Under [--update-baseline], rewrite the baseline file from every
    finding. Otherwise filter the findings through the baseline and
    print them: as one JSON object with [--json], else one line per
    finding and per exceeded baseline group to [out], the errors to
    [err] and the summary line unless [--quiet]. Then exit: 2 on any
    error, else 1 on a finding the baseline does not absorb, else 0. *)
