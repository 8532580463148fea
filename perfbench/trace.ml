(* Outside-in tracing for the traced run. Three sources, none of which
   touches the program under test:

   - spans the benchmark records around its own calls into the
     libraries (name, start, end, parent), kept in memory and written
     out once at exit;
   - a SIGPROF sampler that credits each sample to the innermost stack
     frame whose source file lies under lib/<layer>/;
   - the OCaml runtime's own event ring, read for the time spent in
     runtime phases (minor and major GC).

   With tracing off, [span] is one branch and the other two sources are
   never started. *)

let now_ns () = Monotonic_clock.now ()

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at the root *)
  start_ns : int64;
  mutable end_ns : int64;
}

let on = ref false
let spans : span list ref = ref [] (* most recent first *)
let next_id = ref 0
let current = ref (-1)

let span name f =
  if not !on then f ()
  else begin
    let s =
      { id = !next_id; name; parent = !current; start_ns = now_ns (); end_ns = 0L }
    in
    incr next_id;
    current := s.id;
    let close () =
      s.end_ns <- now_ns ();
      current := s.parent;
      spans := s :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let duration_s s = Int64.to_float (Int64.sub s.end_ns s.start_ns) *. 1e-9

(* Mean duration of the spans called [name], in seconds; 0 if none. *)
let mean_s name =
  let n, sum =
    List.fold_left
      (fun (n, sum) s -> if s.name = name then (n + 1, sum +. duration_s s) else (n, sum))
      (0, 0.) !spans
  in
  if n = 0 then 0. else sum /. float_of_int n

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.parent s.start_ns s.end_ns)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Sampler *)

let samples : (string, int) Hashtbl.t = Hashtbl.create 16

(* The repository's library directories. dune compiles from the
   workspace root, so a library frame's debug location reads
   lib/<layer>/<file>.ml (other packages' frames can look alike). *)
let layers =
  [ "analysis"; "attack"; "core"; "crypto"; "faults"; "fleet"; "hw"; "os";
    "platform"; "telemetry"; "util"; "workload" ]

let layer_of_file file =
  match String.split_on_char '/' file with
  | [ "lib"; layer; _ ] when List.mem layer layers -> Some layer
  | _ -> None

(* The innermost library frame owns the sample. A stack with no library
   frame at all is the benchmark's own driver code (or the stdlib it
   calls directly). *)
let layer_of_stack stack =
  match Printexc.backtrace_slots stack with
  | None -> "bench"
  | Some slots ->
      let rec find i =
        if i >= Array.length slots then "bench"
        else
          match Printexc.Slot.location slots.(i) with
          | Some loc -> (
              match layer_of_file loc.Printexc.filename with
              | Some layer -> layer
              | None -> find (i + 1))
          | None -> find (i + 1)
      in
      find 0

let on_sigprof _ =
  let layer = layer_of_stack (Printexc.get_callstack 256) in
  Hashtbl.replace samples layer
    (1 + Option.value ~default:0 (Hashtbl.find_opt samples layer))

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

(* ------------------------------------------------------------------ *)
(* Runtime (GC) time: the union of every runtime phase interval. *)

let runtime_ns = ref 0L
let depth = ref 0
let phase_start = ref 0L
let lost = ref 0
let cursor = ref None

let callbacks =
  let ts t = Runtime_events.Timestamp.to_int64 t in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t _ ->
      if !depth = 0 then phase_start := ts t;
      incr depth)
    ~runtime_end:(fun _ t _ ->
      if !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          runtime_ns := Int64.add !runtime_ns (Int64.sub (ts t) !phase_start)
      end)
    ~lost_events:(fun _ n ->
      lost := !lost + n;
      depth := 0)
    ()

(* Drain the ring; call often enough that it never wraps. *)
let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
  | None -> ()

(* ------------------------------------------------------------------ *)

(* [start]/[stop] bracket each traced stretch; the measurements
   accumulate across stretches. *)
let start () =
  on := true;
  (match !cursor with
  | None ->
      Runtime_events.start ();
      cursor := Some (Runtime_events.create_cursor None)
  | Some _ -> Runtime_events.resume ());
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  set_timer 0.001

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  poll ();
  Runtime_events.pause ();
  on := false

let sample_counts () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) samples []
let runtime_s () = Int64.to_float !runtime_ns *. 1e-9
let lost_events () = !lost
