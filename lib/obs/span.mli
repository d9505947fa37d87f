(** Nested protocol-phase spans, timed in rounds and wall-clock.

    A span is an interval of a run attributed to one node: a protocol
    phase ([agg/flood], [veri/lfc]), a Tradeoff interval execution
    ([tradeoff/interval#k]), or anything a protocol cares to mark.  Spans
    nest per node (a phase span inside an interval span) and carry a bit
    total: the engine charges every broadcast's bits to the sender's
    innermost open span, so exported traces show where the bits went.

    {b Ambient collector.}  Protocol [step] functions have no channel to
    an observability sink — threading one through every state record
    would contaminate the whole protocol layer.  Instead the engine
    installs the run's collector in domain-local storage for the
    duration of the run ({!with_ambient}); the protocol-facing operations
    ({!enter}, {!exit_named}, {!phase}) target that ambient collector and
    are no-ops when none is installed or telemetry is globally disabled
    ({!Registry.set_enabled}).  Domain-local (not global mutable) state
    keeps concurrent [Sweep] domains from seeing each other's runs.

    Rounds are {e global} engine rounds: the engine publishes the
    current round via {!set_round} once per round, so spans opened by
    protocols running in execution-relative time (Tradeoff's staggered
    Pair executions) still report honest global timestamps. *)

type span = {
  sp_node : int;
  sp_name : string;
  sp_phase : bool;  (** opened by {!phase} (auto-closed by the next phase) *)
  sp_start_round : int;
  mutable sp_end_round : int;  (** [-1] while open *)
  sp_start_wall : float;
  mutable sp_end_wall : float;
  mutable sp_bits : int;  (** bits charged while this span was innermost *)
  sp_depth : int;  (** nesting depth at open time, 0 = outermost *)
}

type t
(** A collector: per-node stacks of open spans plus the closed log. *)

val create : unit -> t

(** {2 Collector-facing (engine, exporters)} *)

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install [t] as this domain's ambient collector for the call
    (restoring the previous one afterwards, exceptions included). *)

val set_round : t -> int -> unit
(** Publish the global round; spans opened/closed after this call are
    stamped with it. *)

val charge : t -> node:int -> int -> unit
(** Attribute bits to [node]'s innermost open span (no-op when none). *)

val current_phase : t -> node:int -> string option
(** Name of [node]'s innermost open span, if any. *)

val close_all : t -> unit
(** Close every open span at the current round (end of run). *)

val spans : t -> span list
(** All spans in creation order; open ones have [sp_end_round = -1]. *)

(** {2 Protocol-facing (ambient)}

    All of these are no-ops unless a collector is ambient {e and}
    telemetry is enabled.  While no domain is inside {!with_ambient},
    each call site pays one atomic read and skips the domain-local
    lookup. *)

val active : unit -> bool
(** Cheap guard for instrumentation blocks that do more than one call. *)

val enter : node:int -> string -> unit
(** Open a nested span. *)

val exit_named : node:int -> string -> unit
(** Close [node]'s open spans innermost-first up to and including the
    one called [name] (no-op if no such span is open). *)

val phase : node:int -> string -> unit
(** Switch [node]'s current {e phase}: if the innermost open span is a
    phase span with this name, do nothing; if it is a phase span with
    another name, close it and open the new one; otherwise open a new
    nested phase span.  Phase spans form a per-node chain that needs no
    explicit closes — ideal for round-window phases like [agg/flood]. *)
