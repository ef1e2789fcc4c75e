type rule =
  | Float_eq
  | Partial_fn
  | Exn_in_core
  | Unseeded_random
  | Print_in_lib
  | Unlogged_sink
  | Global_mut_state
  | Domain_unsafe_reach
  | Rng_ambient

type severity = Error | Warning

type input_error = {
  err_file : string;
  err_pos : (int * int) option;
  err_message : string;
}

type t = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  message : string;
}

let all_rules =
  [
    Float_eq; Partial_fn; Exn_in_core; Unseeded_random; Print_in_lib;
    Unlogged_sink; Global_mut_state; Domain_unsafe_reach; Rng_ambient;
  ]

let rule_id = function
  | Float_eq -> "FLOAT_EQ"
  | Partial_fn -> "PARTIAL_FN"
  | Exn_in_core -> "EXN_IN_CORE"
  | Unseeded_random -> "UNSEEDED_RANDOM"
  | Print_in_lib -> "PRINT_IN_LIB"
  | Unlogged_sink -> "UNLOGGED_SINK"
  | Global_mut_state -> "GLOBAL_MUT_STATE"
  | Domain_unsafe_reach -> "DOMAIN_UNSAFE_REACH"
  | Rng_ambient -> "RNG_AMBIENT"

let rule_of_id s = List.find_opt (fun r -> rule_id r = s) all_rules

(* FLOAT_EQ, PARTIAL_FN, UNSEEDED_RANDOM and RNG_AMBIENT are
   silent-wrong-answer hazards (tail probabilities, trace
   reproducibility); EXN_IN_CORE, PRINT_IN_LIB, UNLOGGED_SINK and the
   stochdomcheck inventory/reach rules are API-discipline rules, so
   they rank as warnings. The CI gate fails on either — severity only
   affects reporting. *)
let severity = function
  | Float_eq | Partial_fn | Unseeded_random | Rng_ambient -> Error
  | Exn_in_core | Print_in_lib | Unlogged_sink | Global_mut_state
  | Domain_unsafe_reach ->
      Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else String.compare (rule_id a.rule) (rule_id b.rule)

let to_human f =
  Printf.sprintf "%s:%d:%d: %s %s: %s" f.file f.line f.col
    (severity_to_string (severity f.rule))
    (rule_id f.rule) f.message
