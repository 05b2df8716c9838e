(* Process-wide instrumentation on one substrate: per-domain bounded
   rings of span and progress records, one ticket, one drain feeding
   the span logs and the progress sinks; atomic counters, gauges and
   histograms; summary, Chrome trace and metrics exporters. See
   telemetry.mli for the contract. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type event =
  | Begin of {
      id : int;
      parent : int;
      name : string;
      cat : string;
      ts : float;
      args : (string * value) list;
    }
  | End of { id : int; ts : float }

type payload =
  | Phase_start of { phase : string }
  | Phase_finish of { phase : string; wall_s : float }
  | Incumbent of { source : string; cost : float; evals : int; wall_s : float }
  | Validation_progress of { backend : string; cleared : int; total : int }
  | Corpus_outcome of {
      id : string;
      ok : bool;
      verdict : string;
      wall_ms : float;
    }
  | Gc_sample of {
      phase : string;
      minor_words : float;
      major_words : float;
      heap_mb : float;
      major_collections : int;
    }
  | Worker_start of { member : string }
  | Worker_finish of { member : string; cost : float; wall_s : float }

type progress = { seq : int; t : float; dom : int; payload : payload }

let rec update cell f =
  let v = Atomic.get cell in
  if not (Atomic.compare_and_set cell v (f v)) then update cell f

(* ------------------------------------------------------------------ *)
(* Recording switch and clock                                          *)
(* ------------------------------------------------------------------ *)

let on = Atomic.make false
let enabled () = Atomic.get on
let disable () = Atomic.set on false

(* Origin of [now] and of progress timestamps. *)
let t0 = Atomic.make 0.

let enable () =
  if not (Atomic.get on) then begin
    Atomic.set t0 (Unix.gettimeofday ());
    Atomic.set on true
  end

let now () =
  if Atomic.get on then Unix.gettimeofday () -. Atomic.get t0 else 0.

(* Bumped by [reset]: a span that began before a reset must not record
   its end into the freshly cleared ring. *)
let epoch = Atomic.make 0

(* Stamps every record; a span's id is the ticket of its begin record
   (0 means "no parent"). *)
let ticket = Atomic.make 1
let dropped_total = Atomic.make 0
let dropped () = Atomic.get dropped_total

(* Set by [Par] on pool workers, where nothing drains. *)
let worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_key
let set_in_worker b = Domain.DLS.set worker_key b

(* ------------------------------------------------------------------ *)
(* Per-domain rings and span logs                                      *)
(* ------------------------------------------------------------------ *)

type body = Span of event | Note of payload
type record = { rseq : int; ts : float; body : body }

let ring_capacity = 4096
let filler = { rseq = 0; ts = 0.; body = Span (End { id = 0; ts = 0. }) }

(* [head] and [tail] are monotonically increasing cursors into a
   virtual infinite stream; the slot of cursor [i] is
   [i mod ring_capacity]. Only the owning domain writes [tail] (after
   the slot write — the atomic store publishes it) and the fields
   marked producer; only the holder of [drain_lock] writes [head] and
   the span log. Each ring is therefore a single-producer,
   single-consumer queue and recording never takes a lock. *)
type ring = {
  rdom : int;
  slots : record array;
  head : int Atomic.t;
  tail : int Atomic.t;
  mutable open_spans : int list;  (* producer: innermost first *)
  mutable depth : int;  (* producer: length of open_spans *)
  mutable last_ts : float;  (* producer: clock clamp *)
  mutable log : event array;  (* consumer: drained spans *)
  mutable log_len : int;
}

let registry : ring list Atomic.t = Atomic.make []

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r =
        {
          rdom = (Domain.self () :> int);
          slots = Array.make ring_capacity filler;
          head = Atomic.make 0;
          tail = Atomic.make 0;
          open_spans = [];
          depth = 0;
          last_ts = 0.;
          log = [||];
          log_len = 0;
        }
      in
      update registry (List.cons r);
      r)

let my_ring () = Domain.DLS.get ring_key

let log_append r ev =
  if r.log_len = Array.length r.log then begin
    let bigger = Array.make (max 256 (2 * r.log_len)) ev in
    Array.blit r.log 0 bigger 0 r.log_len;
    r.log <- bigger
  end;
  r.log.(r.log_len) <- ev;
  r.log_len <- r.log_len + 1

(* ------------------------------------------------------------------ *)
(* Sinks and the drain                                                 *)
(* ------------------------------------------------------------------ *)

let sinks : (int * (progress -> unit)) list Atomic.t = Atomic.make []
let next_sink = Atomic.make 0

let add_sink f =
  let id = Atomic.fetch_and_add next_sink 1 in
  update sinks (fun l -> l @ [ (id, f) ]);
  id

let remove_sink id = update sinks (List.filter (fun (i, _) -> i <> id))

let drain_lock = Mutex.create ()

(* Caller holds [drain_lock]. Spans go to their domain's log in ring
   order (which is ticket order within a domain); progress records
   from all domains are merged by ticket before the sinks see them. *)
let drain_locked () =
  let sinks = Atomic.get sinks and origin = Atomic.get t0 in
  let notes = ref [] in
  List.iter
    (fun r ->
      (* Read [tail] once: records appended while we copy are picked up
         by the next drain. *)
      let tail = Atomic.get r.tail in
      for i = Atomic.get r.head to tail - 1 do
        match r.slots.(i mod ring_capacity) with
        | { body = Span ev; _ } -> log_append r ev
        | { rseq; ts; body = Note payload } ->
            if sinks <> [] then
              notes :=
                { seq = rseq; t = ts -. origin; dom = r.rdom; payload }
                :: !notes
      done;
      Atomic.set r.head tail)
    (Atomic.get registry);
  List.iter
    (fun p -> List.iter (fun (_, s) -> s p) sinks)
    (List.sort (fun a b -> compare a.seq b.seq) !notes)

let drain () =
  if (not (in_worker ())) && Mutex.try_lock drain_lock then
    Fun.protect ~finally:(fun () -> Mutex.unlock drain_lock) drain_locked

(* Exporters wait for an in-flight drain, then drain themselves. *)
let drained f =
  Mutex.protect drain_lock (fun () ->
      drain_locked ();
      f ())

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(* Room for [n] more records on top of the end records reserved by the
   domain's open spans. Outside the pool a full ring is drained in
   place before anything is dropped. *)
let room r = ring_capacity - (Atomic.get r.tail - Atomic.get r.head) - r.depth

let has_room r n =
  room r >= n || ((not (in_worker ())) && (drain (); room r >= n))

let append r rseq body ts =
  let tail = Atomic.get r.tail in
  r.slots.(tail mod ring_capacity) <- { rseq; ts; body };
  Atomic.set r.tail (tail + 1)

(* Wall clock, clamped to be non-decreasing within the domain so span
   nesting is always well-formed even if gettimeofday steps back. *)
let stamp r =
  let t = Unix.gettimeofday () in
  if t > r.last_ts then r.last_ts <- t;
  r.last_ts

let emit payload =
  if Atomic.get on then begin
    let r = my_ring () in
    if has_room r 1 then
      append r (Atomic.fetch_and_add ticket 1) (Note payload) (stamp r)
    else Atomic.incr dropped_total
  end

let close_span r e0 id =
  if Atomic.get epoch = e0 then begin
    (match r.open_spans with
    | top :: rest when top = id ->
        r.open_spans <- rest;
        r.depth <- r.depth - 1
    | _ -> ());
    let ts = stamp r in
    append r (Atomic.fetch_and_add ticket 1) (Span (End { id; ts })) ts
  end

let with_span ?(cat = "ftes") ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let r = my_ring () in
    if not (has_room r 2) then begin
      Atomic.incr dropped_total;
      f ()
    end
    else begin
      let e0 = Atomic.get epoch in
      let id = Atomic.fetch_and_add ticket 1 in
      let parent = match r.open_spans with [] -> 0 | p :: _ -> p in
      let ts = stamp r in
      append r id (Span (Begin { id; parent; name; cat; ts; args })) ts;
      r.open_spans <- id :: r.open_spans;
      r.depth <- r.depth + 1;
      Fun.protect ~finally:(fun () -> close_span r e0 id) f
    end
  end

let word_bytes = float_of_int (Sys.word_size / 8)

let finish_phase phase start =
  if Atomic.get on then begin
    let s = Gc.quick_stat () in
    emit
      (Gc_sample
         {
           phase;
           minor_words = s.Gc.minor_words;
           major_words = s.Gc.major_words;
           heap_mb = float_of_int s.Gc.heap_words *. word_bytes /. 1e6;
           major_collections = s.Gc.major_collections;
         });
    emit (Phase_finish { phase; wall_s = Unix.gettimeofday () -. start })
  end

let with_phase ?cat ?args phase f =
  if not (Atomic.get on) then f ()
  else
    Fun.protect ~finally:drain (fun () ->
        with_span ?cat ?args phase (fun () ->
            emit (Phase_start { phase });
            drain ();
            let start = Unix.gettimeofday () in
            Fun.protect ~finally:(fun () -> finish_phase phase start) f))

(* ------------------------------------------------------------------ *)
(* Counters, gauges, histograms                                        *)
(* ------------------------------------------------------------------ *)

(* One lock guards the three name registries; updates to a registered
   cell are lock-free. *)
let names_lock = Mutex.create ()

let intern tbl name make =
  Mutex.protect names_lock (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
          let v = make () in
          Hashtbl.add tbl name v;
          v)

let sorted tbl value =
  Mutex.protect names_lock (fun () ->
      Hashtbl.fold (fun name v acc -> (name, value v) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type counter = int Atomic.t

let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 32
let counter name = intern counter_registry name (fun () -> Atomic.make 0)
let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c n)
let incr c = add c 1
let counter_value = Atomic.get
let counters () = sorted counter_registry Atomic.get

let gauge_registry : (string, float Atomic.t) Hashtbl.t = Hashtbl.create 16

let set_gauge name v =
  if Atomic.get on then
    Atomic.set (intern gauge_registry name (fun () -> Atomic.make v)) v

let gauges () = sorted gauge_registry Atomic.get

type histogram = {
  bounds : float array;  (* ascending upper bounds *)
  buckets : int Atomic.t array;  (* length bounds + 1 (overflow) *)
  total : int Atomic.t;
  sum : float Atomic.t;
}

(* Exponential decades suited to latencies in seconds. *)
let default_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100. |]

let hist_registry : (string, histogram) Hashtbl.t = Hashtbl.create 16

let histogram ?(bounds = default_bounds) name =
  let fail why =
    invalid_arg (Printf.sprintf "Telemetry.histogram %s: %s" name why)
  in
  if Array.length bounds = 0 then fail "empty bounds";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then fail "bounds not increasing"
  done;
  let h =
    intern hist_registry name (fun () ->
        {
          bounds = Array.copy bounds;
          buckets =
            Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
          total = Atomic.make 0;
          sum = Atomic.make 0.;
        })
  in
  if h.bounds <> bounds then fail "conflicting bounds";
  h

let bucket_of h x =
  let n = Array.length h.bounds in
  let rec find i = if i >= n then n else if x <= h.bounds.(i) then i else find (i + 1) in
  find 0

let observe h x =
  if Atomic.get on then begin
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of h x) 1);
    ignore (Atomic.fetch_and_add h.total 1);
    update h.sum (fun s -> s +. x)
  end

(* (name, histogram) pairs, sorted by name. *)
let histograms () = sorted hist_registry Fun.id

let hist_snapshot h =
  (Array.map Atomic.get h.buckets, Atomic.get h.total, Atomic.get h.sum)

(* ------------------------------------------------------------------ *)
(* Reset / dump                                                        *)
(* ------------------------------------------------------------------ *)

let reset () =
  Atomic.incr epoch;
  Mutex.protect drain_lock (fun () ->
      List.iter
        (fun r ->
          Atomic.set r.head (Atomic.get r.tail);
          r.open_spans <- [];
          r.depth <- 0;
          r.log_len <- 0)
        (Atomic.get registry));
  Atomic.set dropped_total 0;
  Mutex.protect names_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counter_registry;
      Hashtbl.reset gauge_registry;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun c -> Atomic.set c 0) h.buckets;
          Atomic.set h.total 0;
          Atomic.set h.sum 0.)
        hist_registry)

let dump () =
  drained (fun () ->
      List.map
        (fun r -> (r.rdom, Array.to_list (Array.sub r.log 0 r.log_len)))
        (Atomic.get registry))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Summary tree                                                        *)
(* ------------------------------------------------------------------ *)

type node = {
  mutable total : float;
  mutable self : float;
  mutable count : int;
  children : (string, node) Hashtbl.t;
}

let new_node () = { total = 0.; self = 0.; count = 0; children = Hashtbl.create 4 }

let find_node tbl name =
  match Hashtbl.find_opt tbl name with
  | Some n -> n
  | None ->
      let n = new_node () in
      Hashtbl.add tbl name n;
      n

type frame = {
  fid : int;
  fnode : node;
  fstart : float;
  mutable child_time : float;
}

(* Fold every domain's event stream into one tree keyed by span name
   within parent: totals aggregate across domains and across calls. *)
let build_tree () =
  let roots : (string, node) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (_dom, evs) ->
      let stack = ref [] in
      List.iter
        (fun ev ->
          match ev with
          | Begin { id; name; ts; _ } ->
              let tbl =
                match !stack with
                | [] -> roots
                | f :: _ -> f.fnode.children
              in
              stack :=
                { fid = id; fnode = find_node tbl name; fstart = ts;
                  child_time = 0. }
                :: !stack
          | End { id; ts } -> (
              match !stack with
              | f :: rest when f.fid = id ->
                  stack := rest;
                  let dur = ts -. f.fstart in
                  f.fnode.total <- f.fnode.total +. dur;
                  f.fnode.self <- f.fnode.self +. (dur -. f.child_time);
                  f.fnode.count <- f.fnode.count + 1;
                  (match rest with
                  | parent :: _ -> parent.child_time <- parent.child_time +. dur
                  | [] -> ())
              | _ -> () (* orphan end: span began before a reset *)))
        evs)
    (dump ());
  roots

let ms s = s *. 1e3

let rec pp_tree ppf ~indent tbl =
  let entries =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b.total a.total)
  in
  List.iter
    (fun (name, n) ->
      Format.fprintf ppf "  %s%-*s %6d calls %10.2f ms total %10.2f ms self@,"
        (String.make indent ' ')
        (max 1 (36 - indent))
        name n.count (ms n.total) (ms n.self);
      pp_tree ppf ~indent:(indent + 2) n.children)
    entries

(* Approximate percentiles from the fixed buckets: one representative
   sample per bucket midpoint, weighted by its count, fed through
   [Stats.percentile]. *)
let hist_samples h buckets =
  let n = Array.length h.bounds in
  let rep i =
    if i = 0 then h.bounds.(0) /. 2.
    else if i < n then (h.bounds.(i - 1) +. h.bounds.(i)) /. 2.
    else h.bounds.(n - 1)
  in
  let out = ref [] in
  Array.iteri
    (fun i c ->
      for _ = 1 to c do
        out := rep i :: !out
      done)
    buckets;
  !out

let pp_summary ppf () =
  Format.fprintf ppf "@[<v>spans (total wall, self = total - children):@,";
  let roots = build_tree () in
  if Hashtbl.length roots = 0 then Format.fprintf ppf "  (none recorded)@,"
  else pp_tree ppf ~indent:0 roots;
  let cs = List.filter (fun (_, v) -> v <> 0) (counters ()) in
  Format.fprintf ppf "counters:@,";
  if cs = [] then Format.fprintf ppf "  (none)@,"
  else
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-36s %12d@," name v) cs;
  let gs = gauges () in
  Format.fprintf ppf "gauges:@,";
  if gs = [] then Format.fprintf ppf "  (none)@,"
  else
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-36s %12g@," name v) gs;
  Format.fprintf ppf "histograms:@,";
  let printed = ref false in
  List.iter
    (fun (name, h) ->
      let buckets, total, sum = hist_snapshot h in
      if total > 0 then begin
        printed := true;
        let samples = hist_samples h buckets in
        Format.fprintf ppf
          "  %-36s %8d obs  mean %10.3g  p50 %10.3g  p99 %10.3g@," name total
          (sum /. float_of_int total)
          (Stats.percentile 50. samples)
          (Stats.percentile 99. samples)
      end)
    (histograms ());
  if not !printed then Format.fprintf ppf "  (none)@,";
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_value = function
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_finite f then Printf.sprintf "%.6g" f
      else Printf.sprintf "\"%s\"" (string_of_float f)
  | Str s -> Printf.sprintf "\"%s\"" (json_escape s)
  | Bool b -> string_of_bool b

let json_args args =
  String.concat ", "
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (json_value v))
       args)

let to_chrome_json () =
  let per_dom = dump () in
  let t0 =
    List.fold_left
      (fun acc (_, evs) ->
        List.fold_left
          (fun acc ev ->
            let ts = match ev with Begin { ts; _ } | End { ts; _ } -> ts in
            Float.min acc ts)
          acc evs)
      infinity per_dom
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let us ts = (ts -. t0) *. 1e6 in
  let items = ref [] in
  let emit fmt = Printf.ksprintf (fun s -> items := s :: !items) fmt in
  let t_max = ref 0. in
  List.iter
    (fun (dom, evs) ->
      let label = if dom = 0 then "main" else Printf.sprintf "domain %d" dom in
      emit
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \
         \"args\": {\"name\": \"%s\"}}"
        dom (json_escape label);
      List.iter
        (fun ev ->
          match ev with
          | Begin { name; cat; ts; args; parent; id; _ } ->
              t_max := Float.max !t_max (us ts);
              let extra =
                ("span_id", Int id)
                :: (if parent = 0 then [] else [ ("parent_id", Int parent) ])
              in
              emit
                "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"B\", \"ts\": \
                 %.3f, \"pid\": 1, \"tid\": %d, \"args\": {%s}}"
                (json_escape name) (json_escape cat) (us ts) dom
                (json_args (args @ extra))
          | End { ts; _ } ->
              t_max := Float.max !t_max (us ts);
              emit "{\"ph\": \"E\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d}"
                (us ts) dom)
        evs)
    per_dom;
  List.iter
    (fun (name, v) ->
      if v <> 0 then
        emit
          "{\"name\": \"%s\", \"ph\": \"C\", \"ts\": %.3f, \"pid\": 1, \
           \"tid\": 0, \"args\": {\"value\": %d}}"
          (json_escape name) !t_max v)
    (counters ());
  "[\n" ^ String.concat ",\n" (List.rev !items) ^ "\n]\n"

let write_chrome_trace path =
  let oc = open_out path in
  output_string oc (to_chrome_json ());
  close_out oc

(* ------------------------------------------------------------------ *)
(* Metrics exposition (JSON snapshot + Prometheus text format)         *)
(* ------------------------------------------------------------------ *)

let jfloat f =
  if Float.is_finite f then Printf.sprintf "%.9g" f
  else Printf.sprintf "\"%s\"" (string_of_float f)

let to_metrics_json () =
  let obj fields = "{" ^ String.concat ", " fields ^ "}" in
  let field render (name, v) =
    Printf.sprintf "\"%s\": %s" (json_escape name) (render v)
  in
  let hist h =
    let buckets, total, sum = hist_snapshot h in
    let bucket i c =
      Printf.sprintf "{\"le\": %s, \"count\": %d}"
        (if i < Array.length h.bounds then jfloat h.bounds.(i) else "\"+Inf\"")
        c
    in
    Printf.sprintf "{\"buckets\": [%s], \"total\": %d, \"sum\": %s}"
      (String.concat ", " (Array.to_list (Array.mapi bucket buckets)))
      total (jfloat sum)
  in
  obj
    [
      field obj ("counters", List.map (field string_of_int) (counters ()));
      field obj ("gauges", List.map (field jfloat) (gauges ()));
      field obj ("histograms", List.map (field hist) (histograms ()));
    ]

let prom_name name =
  "ftes_"
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
        | _ -> '_')
      name

let pp_prometheus ppf () =
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Format.fprintf ppf "# TYPE %s counter@\n%s %d@\n" n n v)
    (counters ());
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Format.fprintf ppf "# TYPE %s gauge@\n%s %g@\n" n n v)
    (gauges ());
  List.iter
    (fun (name, h) ->
      let n = prom_name name in
      let buckets, total, sum = hist_snapshot h in
      Format.fprintf ppf "# TYPE %s histogram@\n" n;
      let cumulative = ref 0 in
      Array.iteri
        (fun i c ->
          cumulative := !cumulative + c;
          let le =
            if i < Array.length h.bounds then
              Printf.sprintf "%g" h.bounds.(i)
            else "+Inf"
          in
          Format.fprintf ppf "%s_bucket{le=\"%s\"} %d@\n" n le !cumulative)
        buckets;
      Format.fprintf ppf "%s_sum %g@\n%s_count %d@\n" n sum n total)
    (histograms ())

(* ------------------------------------------------------------------ *)
(* Progress rendering (NDJSON and the live TTY view)                   *)
(* ------------------------------------------------------------------ *)

let progress_to_json ev =
  let common =
    Printf.sprintf "\"seq\": %d, \"t\": %s, \"dom\": %d" ev.seq (jfloat ev.t)
      ev.dom
  in
  match ev.payload with
  | Phase_start { phase } ->
      Printf.sprintf "{%s, \"type\": \"phase-start\", \"phase\": \"%s\"}"
        common (json_escape phase)
  | Phase_finish { phase; wall_s } ->
      Printf.sprintf
        "{%s, \"type\": \"phase-finish\", \"phase\": \"%s\", \"wall_s\": %s}"
        common (json_escape phase) (jfloat wall_s)
  | Incumbent { source; cost; evals; wall_s } ->
      Printf.sprintf
        "{%s, \"type\": \"incumbent\", \"source\": \"%s\", \"cost\": %s, \
         \"evals\": %d, \"wall_s\": %s}"
        common (json_escape source) (jfloat cost) evals (jfloat wall_s)
  | Validation_progress { backend; cleared; total } ->
      Printf.sprintf
        "{%s, \"type\": \"validation-progress\", \"backend\": \"%s\", \
         \"cleared\": %d, \"total\": %d}"
        common (json_escape backend) cleared total
  | Corpus_outcome { id; ok; verdict; wall_ms } ->
      Printf.sprintf
        "{%s, \"type\": \"corpus-outcome\", \"id\": \"%s\", \"ok\": %b, \
         \"verdict\": \"%s\", \"wall_ms\": %s}"
        common (json_escape id) ok (json_escape verdict) (jfloat wall_ms)
  | Gc_sample { phase; minor_words; major_words; heap_mb; major_collections }
    ->
      Printf.sprintf
        "{%s, \"type\": \"gc-sample\", \"phase\": \"%s\", \"minor_words\": \
         %s, \"major_words\": %s, \"heap_mb\": %s, \"major_collections\": %d}"
        common (json_escape phase) (jfloat minor_words) (jfloat major_words)
        (jfloat heap_mb) major_collections
  | Worker_start { member } ->
      Printf.sprintf "{%s, \"type\": \"worker-start\", \"member\": \"%s\"}"
        common (json_escape member)
  | Worker_finish { member; cost; wall_s } ->
      Printf.sprintf
        "{%s, \"type\": \"worker-finish\", \"member\": \"%s\", \"cost\": %s, \
         \"wall_s\": %s}"
        common (json_escape member) (jfloat cost) (jfloat wall_s)

let ndjson_sink oc ev =
  output_string oc (progress_to_json ev);
  output_char oc '\n';
  flush oc

let progress_sink oc ev =
  (match ev.payload with
  | Phase_start { phase } -> Printf.fprintf oc "[%7.2fs] >> %s\n" ev.t phase
  | Phase_finish { phase; wall_s } ->
      Printf.fprintf oc "[%7.2fs] << %s (%.2f s)\n" ev.t phase wall_s
  | Incumbent { source; cost; evals; wall_s } ->
      Printf.fprintf oc "[%7.2fs]    %s incumbent %g (%d evals, %.2f s)\n" ev.t
        source cost evals wall_s
  | Validation_progress { backend; cleared; total } ->
      if total > 0 then
        Printf.fprintf oc "[%7.2fs]    validate %s %d/%d scenarios\n" ev.t
          backend cleared total
      else
        Printf.fprintf oc "[%7.2fs]    validate %s %d cube(s)\n" ev.t backend
          cleared
  | Corpus_outcome { id; ok; verdict; wall_ms } ->
      Printf.fprintf oc "[%7.2fs]    corpus %-34s %s (%s, %.1f ms)\n" ev.t id
        (if ok then "ok" else "FAILED")
        verdict wall_ms
  | Gc_sample { phase; heap_mb; major_collections; _ } ->
      Printf.fprintf oc "[%7.2fs]    gc %s: heap %.1f MB, %d major\n" ev.t
        phase heap_mb major_collections
  | Worker_start { member } -> Printf.fprintf oc "[%7.2fs] |> %s\n" ev.t member
  | Worker_finish { member; cost; wall_s } ->
      Printf.fprintf oc "[%7.2fs] <| %s final %g (%.2f s)\n" ev.t member cost
        wall_s);
  flush oc
