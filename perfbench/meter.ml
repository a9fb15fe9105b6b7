(* Host-speed-calibrated timing.

   On a shared host the same single-threaded run can take twice as long
   from one minute to the next, which swamps any change worth
   measuring. While a measured section runs, a timer interrupts it every
   [period_s] to run a fixed calibration chunk that uses only the OCaml
   standard library (no change to rtlf can make it faster). The chunks'
   own time is subtracted, and the rest is divided by the host's
   slowdown over the section: the chunks' mean duration over
   [reference_ns]. Times are therefore in reference seconds. A section
   too short to be interrupted [min_chunks] times is followed by the
   missing chunks. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let period_s = 0.02
let min_chunks = 5

(* About [chunk]'s duration on a lightly loaded 2-core Xeon VM; it sets
   the unit, one reference second. *)
let reference_ns = 500_000.0

let table = Hashtbl.create 16

(* Hash-table updates with a scattered key stride, list allocation and a
   sort: the mix of pointer chasing, allocation and minor collections
   the simulator itself does. *)
let chunk () =
  let l = ref [] in
  for i = 0 to 5_000 do
    Hashtbl.replace table (i * 7919 mod 2_500) i;
    if i mod 3 = 0 then l := ((i * 7) mod 1000) :: !l
  done;
  ignore (Sys.opaque_identity (List.sort compare !l))

(* Minor-heap words one chunk allocates; the same on every call. *)
let chunk_words =
  chunk ();
  let w0 = Gc.minor_words () in
  chunk ();
  Gc.minor_words () -. w0

type stats = {
  mutable chunk_ns : int;
  mutable chunks : int;
  mutable all_chunks : int;
}

let stats = { chunk_ns = 0; chunks = 0; all_chunks = 0 }

let run_chunk () =
  let t0 = now_ns () in
  chunk ();
  stats.chunk_ns <- stats.chunk_ns + (now_ns () - t0);
  stats.chunks <- stats.chunks + 1;
  stats.all_chunks <- stats.all_chunks + 1

(* Host ns of calibration chunks run so far in the current {!measure}:
   code that times itself inside a measured section subtracts them. *)
let chunk_ns () = stats.chunk_ns

(* Bytes allocated on the minor heap so far, less the calibration
   chunks'. Blocks too large for the minor heap are not counted: OCaml
   5.1's major-heap counters are exact only at collection boundaries. *)
let minor_bytes () =
  (Gc.minor_words () -. (float_of_int stats.all_chunks *. chunk_words))
  *. float_of_int (Sys.word_size / 8)

let arm period =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period; it_value = period })

(* [measure f] is [f]'s result, its duration in reference seconds, and
   the slowdown its host seconds were divided by. *)
let measure f =
  stats.chunk_ns <- 0;
  stats.chunks <- 0;
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> run_chunk ()));
  arm period_s;
  let t0 = now_ns () in
  let r = Fun.protect ~finally:(fun () -> arm 0.0) f in
  let host_ns = now_ns () - t0 - stats.chunk_ns in
  for _ = stats.chunks + 1 to min_chunks do
    run_chunk ()
  done;
  let slowdown =
    float_of_int stats.chunk_ns /. float_of_int stats.chunks /. reference_ns
  in
  (r, float_of_int host_ns *. 1e-9 /. slowdown, slowdown)
