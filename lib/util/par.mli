(** Domain-pool parallel execution with deterministic ordered merge.

    The validator replays every fault scenario independently, the tabu
    search evaluates every candidate move independently, and the
    experiment sweeps synthesize every workload instance independently —
    all embarrassingly parallel. This module fans such task lists out
    over a persistent pool of OCaml 5 domains and merges the results
    {e by input index}, so the output is byte-identical to the
    sequential run regardless of how the domains interleave.

    Worker domains are spawned lazily on first use and parked on a
    condition variable between calls, so the per-call dispatch cost is
    a mutex round-trip rather than a [Domain.spawn]/[Domain.join]
    (milliseconds). This matters in the optimization inner loop: once
    the evaluation cache absorbs most candidate evaluations, each
    fan-out runs microseconds of real work, and a spawn-per-call pool
    would cost more than it saves. [~jobs] remains an upper bound on
    the domains working on any one call even after the pool has grown
    larger for another. The pool is torn down by an [at_exit] hook.

    Scheduling is dynamic (workers pull the next task from a shared
    atomic counter), which balances uneven task costs — fault scenarios
    and candidate configurations vary widely in evaluation time.

    Nesting is safe but never multiplies domains: a [Par] call issued
    from inside a worker runs sequentially in that worker. Callers can
    therefore parallelize an outer sweep whose tasks themselves call
    parallel validation without oversubscribing the machine.

    [~jobs:1] is the exact sequential code path ([List.map] /
    [List.concat_map] / [List.init]); omitting [jobs] uses
    {!default_jobs}. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size used when
    [?jobs] is omitted. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed on up to [jobs]
    domains. Results are merged in input order. If any [f x] raises,
    the first exception (in scheduling order) is re-raised in the
    calling domain after the pool drains. *)

val concat_map : ?jobs:int -> ('a -> 'b list) -> 'a list -> 'b list
(** [concat_map ~jobs f xs] is [List.concat_map f xs]: per-item result
    lists are concatenated in input order. *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a list
(** [init ~jobs n f] is [List.init n f] with [f] applied on the pool. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map}. *)

val map_live :
  ?jobs:int -> poll:(unit -> unit) -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!map}, but the calling domain never executes tasks: up to
    [jobs] {e pool workers} (not [jobs - 1]) race through the batch
    while the caller repeatedly runs [poll] in its completion-wait
    loop. Built for live observability — pass [Ftes_util.Telemetry.drain]
    (or any sink pump) as [poll] and records emitted by the workers are
    delivered while the fan-out is still in flight, instead of at the
    next drain after it returns. [poll] runs only on the calling
    domain, every few milliseconds; it must not dispatch another
    parallel batch. With [jobs <= 1], from inside a worker, or when the
    pool is unavailable, tasks run sequentially in the caller with
    [poll] invoked between tasks. Result order and the
    first-exception-wins error contract match {!map}. *)

val map_ranges :
  ?jobs:int -> ?chunks_per_job:int -> int -> (int -> int -> 'a) -> 'a list
(** [map_ranges ~jobs n f] splits the index space [0, n)] into coarse
    contiguous ranges — about [chunks_per_job] (default 4) per domain,
    balanced to within one item — and applies [f lo hi] to each range
    on the pool. Results come back in range order, so
    [List.concat (map_ranges n f)] over a range-local fold is
    byte-identical to the sequential left-to-right fold regardless of
    [jobs]. This is the batch-grained alternative to {!map} for hot
    loops where a task per item is too fine: each range amortizes
    per-task dispatch and lets the worker keep range-local scratch
    state. [n <= 0] yields [[]]; [jobs <= 1] (or a nested call from a
    worker) runs [f 0 n] sequentially. *)

val in_worker : unit -> bool
(** True when called from inside a [Par] worker domain (where nested
    [Par] calls run sequentially). Exposed for tests and diagnostics. *)

val pool_size : unit -> int
(** Number of parked worker domains currently alive (excluding the
    calling domain). Also published as the [par.pool_size] telemetry
    gauge on every fan-out. *)

val shutdown : unit -> unit
(** Join every parked worker domain. Call from a test or bench main
    before exit so the run does not leak parked domains; an [at_exit]
    hook calls it as a backstop. The pool re-arms itself: a parallel
    call issued after [shutdown] lazily respawns workers. *)
