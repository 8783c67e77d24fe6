(* In-memory tracer for the traced run.

   Two kinds of timed call share one frame stack, so self time is always
   "duration minus the part covered by timed children":
   - phase calls ([phase]) run a few times per run and are kept as spans
     (name, start, end, parent) that [write] dumps at the end;
   - per-event calls ([enter] / [leave], e.g. [Stream.feed] or a system's
     [submit]) are folded into a call count and a total self time per layer,
     so tracing them keeps no per-call record.

   Per-event frames count minor-heap words (read without allocating); phase
   frames count all words (minor + major - promoted). *)

type layer = {
  name : string;
  mutable calls : int;
  mutable self_ns : int;
  mutable self_words : float;
}

let layers : layer list ref = ref []

let layer name =
  let l = { name; calls = 0; self_ns = 0; self_words = 0. } in
  layers := l :: !layers;
  l

type span = {
  id : int;
  span_name : string;
  parent : int;  (** [-1] for the root *)
  start_ns : int;
  mutable stop_ns : int;
  mutable words : float;  (** all words allocated inside the span *)
}

let max_depth = 256
let f_start = Array.make max_depth 0
let f_child = Array.make max_depth 0
let f_words = Array.make max_depth 0.
let f_child_words = Array.make max_depth 0.
let depth = ref 0

let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0

let push ~words =
  incr depth;
  let d = !depth in
  if d >= max_depth then failwith "Spans: frame stack overflow";
  f_start.(d) <- Clock.now_ns ();
  f_child.(d) <- 0;
  f_words.(d) <- words;
  f_child_words.(d) <- 0.

let pop layer ~words =
  let d = !depth in
  let elapsed = Clock.now_ns () - f_start.(d) in
  let used = words -. f_words.(d) in
  layer.calls <- layer.calls + 1;
  layer.self_ns <- layer.self_ns + elapsed - f_child.(d);
  layer.self_words <- layer.self_words +. used -. f_child_words.(d);
  decr depth;
  let p = !depth in
  f_child.(p) <- f_child.(p) + elapsed;
  f_child_words.(p) <- f_child_words.(p) +. used

let enter () = push ~words:(Gc.minor_words ())
let leave layer = pop layer ~words:(Gc.minor_words ())

let phase layer name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let span = { id; span_name = name; parent; start_ns = Clock.now_ns ();
               stop_ns = 0; words = 0. } in
  spans := span :: !spans;
  open_spans := id :: !open_spans;
  let w0 = Clock.words () in
  push ~words:w0;
  let close () =
    let w1 = Clock.words () in
    pop layer ~words:w1;
    span.stop_ns <- Clock.now_ns ();
    span.words <- w1 -. w0;
    open_spans := List.tl !open_spans
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

(* Of [total_ns] since program start, the part no timed call covers. *)
let untimed_ns total_ns = total_ns - f_child.(0)

(* Total duration and words of every span called [name]. *)
let span_totals name =
  List.fold_left
    (fun (ns, words) s ->
      if String.equal s.span_name name then
        (ns + (s.stop_ns - s.start_ns), words +. s.words)
      else (ns, words))
    (0, 0.) !spans

let reset () =
  List.iter
    (fun l -> l.calls <- 0; l.self_ns <- 0; l.self_words <- 0.)
    !layers;
  spans := [];
  open_spans := [];
  next_id := 0;
  depth := 0;
  f_child.(0) <- 0;
  f_child_words.(0) <- 0.

let to_json () =
  let module J = Ccdb_util.Json in
  let num i = J.Num (float_of_int i) in
  J.Obj
    [ ( "spans",
        J.List
          (List.rev_map
             (fun s ->
               J.Obj
                 [ ("id", num s.id); ("name", J.Str s.span_name);
                   ("parent", num s.parent);
                   ("start_ns", num (s.start_ns - Clock.start_ns));
                   ("end_ns", num (s.stop_ns - Clock.start_ns));
                   ("words", J.Num s.words) ])
             !spans) );
      ( "layers",
        J.List
          (List.rev_map
             (fun l ->
               J.Obj
                 [ ("layer", J.Str l.name); ("calls", num l.calls);
                   ("self_ns", num l.self_ns);
                   ("self_words", J.Num l.self_words) ])
             !layers) ) ]

let write path =
  let oc = open_out path in
  output_string oc (Ccdb_util.Json.to_string ~indent:0 (to_json ()));
  output_char oc '\n';
  close_out oc
