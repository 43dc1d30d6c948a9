(* One record instead of six optional arguments: every check entry point
   takes [?config] and unpacks it, so adding a knob (like the obs handle)
   is a one-field change instead of a signature sweep across four
   libraries. *)

type t = {
  max_states : int;
  max_pairs : int option;
  deadline : float option;
  workers : int;
  obs : Obs.t;
  progress : (Search.progress -> unit) option;
  cancel : (unit -> bool) option;
  memory_limit_mb : int option;
  reductions : Reduce.pipeline;
  cache : Cache.t option;
}

let default =
  {
    max_states = 1_000_000;
    max_pairs = None;
    deadline = None;
    workers = 1;
    obs = Obs.silent;
    progress = None;
    cancel = None;
    memory_limit_mb = None;
    reductions = Reduce.default_pipeline;
    cache = None;
  }

let with_max_states max_states t = { t with max_states }
let with_max_pairs n t = { t with max_pairs = Some n }
let with_deadline seconds t = { t with deadline = Some seconds }
let with_workers workers t = { t with workers }
let with_obs obs t = { t with obs }
let with_progress cb t = { t with progress = Some cb }
let with_cancel token t = { t with cancel = Some token }
let with_memory_limit mb t = { t with memory_limit_mb = Some mb }
let with_reductions reductions t = { t with reductions }
let with_cache cache t = { t with cache = Some cache }
