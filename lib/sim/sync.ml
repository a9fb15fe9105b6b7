type spin_kind = Ticket | Mcs

type t =
  | Lock_based of { overhead : int }
  | Lock_free of { overhead : int }
  | Spin of { overhead : int; kind : spin_kind }
  | Ideal

let spin_kind_name = function Ticket -> "ticket" | Mcs -> "mcs"

let name = function
  | Lock_based _ -> "lock-based"
  | Lock_free _ -> "lock-free"
  | Spin { kind; _ } -> "spin-" ^ spin_kind_name kind
  | Ideal -> "ideal"

let nominal_access_cost sync ~work =
  match sync with
  | Lock_based { overhead } -> (2 * overhead) + work
  | Lock_free { overhead } -> overhead + work
  | Spin { overhead; _ } -> (2 * overhead) + work
  | Ideal -> 0

let segment_cost sync = function
  | Rtlf_model.Segment.Compute s -> s
  | Rtlf_model.Segment.Access { work; _ } -> nominal_access_cost sync ~work
  | Rtlf_model.Segment.Lock _ | Rtlf_model.Segment.Unlock _ -> (
    match sync with
    | Lock_based { overhead } | Spin { overhead; _ } -> overhead
    | Lock_free _ | Ideal -> 0)

let uses_lock_events = function
  | Lock_based _ | Spin _ -> true
  | Lock_free _ | Ideal -> false

let pp fmt sync =
  match sync with
  | Lock_based { overhead } ->
    Format.fprintf fmt "lock-based(ov=%dns)" overhead
  | Lock_free { overhead } -> Format.fprintf fmt "lock-free(ov=%dns)" overhead
  | Spin { overhead; kind } ->
    Format.fprintf fmt "spin-%s(ov=%dns)" (spin_kind_name kind) overhead
  | Ideal -> Format.pp_print_string fmt "ideal"
