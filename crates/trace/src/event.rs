//! The trace vocabulary: every event kind, declared once.
//!
//! Every observable action in the simulator and the quorum runtime maps
//! to one [`EventKind`] variant; a recorded [`Event`] adds the virtual
//! time and a monotone sequence number, so a trace is totally ordered
//! even when many events share a tick. Events render to one JSON object
//! per line (JSONL) with a flat schema: `{"t":…,"seq":…,"kind":…,…}`.
//!
//! The `event_table!` invocation below *is* the schema. Each entry names
//! a variant, its JSONL tag and its fields in written order, and the
//! macro expands the one table into the enum, its tags, its writer and
//! its reader ([`crate::codec`] says how each field type renders). To add
//! a field or a kind: one line here, one line in
//! `tests/fixtures/all_kinds_v4.jsonl` (the fixture test fails until the
//! file lists exactly [`EventKind::TAGS`]), an arm in
//! `causality::location` if the kind happens at a node (the compiler asks
//! for it), and a [`FORMAT_VERSION`](crate::codec::FORMAT_VERSION) bump.
//! A delivery or a timer fire names the [`Origin`] record it was sent or
//! armed after, so a send, an injection or an arming has no record.

use std::fmt::Write as _;

use crate::codec::{Field, Fields, JVal};
use crate::monitor::LevelTransition;
use crate::staleness::SloViolation;

/// A fixed-capacity inline operation label.
///
/// Recording an `op_begin` event must not allocate: labels render into
/// an inline 14-byte buffer (keeping [`EventKind`] at 24 bytes), and
/// longer `Debug` output is truncated at a character boundary.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct OpLabel {
    len: u8,
    buf: [u8; Self::CAP],
}

impl OpLabel {
    /// Inline capacity in bytes.
    pub const CAP: usize = 14;

    /// Renders `op`'s `Debug` form into an inline label, truncating to
    /// the capacity without allocating.
    pub fn from_debug(op: &impl std::fmt::Debug) -> Self {
        let mut label = OpLabel {
            len: 0,
            buf: [0; Self::CAP],
        };
        // Truncation surfaces as a full buffer, not as an error.
        let _ = write!(&mut label, "{op:?}");
        label
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..usize::from(self.len)]).unwrap_or("")
    }

    /// Appends a string, truncating at capacity (char-boundary safe).
    ///
    /// Together with [`OpLabel::push_u32`] this lets hot paths build
    /// labels without going through the `fmt` machinery.
    pub fn push_str(&mut self, s: &str) {
        let _ = std::fmt::Write::write_str(self, s);
    }

    /// Appends a decimal rendering of `v`, truncating at capacity.
    pub fn push_u32(&mut self, v: u32) {
        // Ten digits cover u32::MAX; render right-to-left into a stack
        // buffer and append the used suffix.
        let mut digits = [0u8; 10];
        let mut i = digits.len();
        let mut v = v;
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let s = std::str::from_utf8(&digits[i..]).expect("ASCII digits");
        self.push_str(s);
    }

    /// Appends a decimal rendering of `v`, truncating at capacity.
    pub fn push_i64(&mut self, v: i64) {
        // Twenty digits cover u64::MAX; render right-to-left into a
        // stack buffer and append the used suffix.
        if v < 0 {
            self.push_str("-");
        }
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut m = v.unsigned_abs();
        loop {
            i -= 1;
            digits[i] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        let s = std::str::from_utf8(&digits[i..]).expect("ASCII digits");
        self.push_str(s);
    }
}

impl std::fmt::Write for OpLabel {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let room = Self::CAP - usize::from(self.len);
        let take = if s.len() <= room {
            s.len()
        } else {
            // Largest prefix within `room` that ends on a char boundary.
            let mut t = room;
            while t > 0 && !s.is_char_boundary(t) {
                t -= 1;
            }
            t
        };
        self.buf[usize::from(self.len)..usize::from(self.len) + take]
            .copy_from_slice(&s.as_bytes()[..take]);
        self.len += take as u8;
        Ok(())
    }
}

impl Default for OpLabel {
    fn default() -> Self {
        OpLabel {
            len: 0,
            buf: [0; Self::CAP],
        }
    }
}

impl std::ops::Deref for OpLabel {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::fmt::Display for OpLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for OpLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// The groups payload of [`EventKind::PartitionSet`], held behind one
/// *thin* pointer.
///
/// A fat `Box<[Box<[u32]>]>` directly in the enum is measurably hostile
/// to the tracing hot path: its presence forces every `Tracer::record`
/// to move the enum through a stack temporary and memcpy (~3x slower per
/// record, for *all* variants). The rare partition event pays one extra
/// indirection instead.
#[derive(Debug, Clone, PartialEq, Eq)]
// The "extra" allocation is the point: `Vec<Vec<u32>>` inline would put
// 24 bytes (and a fat move) in the enum; `Box<[…]>` is a fat pointer.
#[allow(clippy::box_collection)]
pub struct PartitionGroups(Box<Vec<Vec<u32>>>);

impl PartitionGroups {
    /// Wraps explicit groups of node indices.
    #[must_use]
    pub fn new(groups: Vec<Vec<u32>>) -> Self {
        PartitionGroups(Box::new(groups))
    }
}

impl std::ops::Deref for PartitionGroups {
    type Target = [Vec<u32>];
    fn deref(&self) -> &[Vec<u32>] {
        &self.0
    }
}

impl FromIterator<Vec<u32>> for PartitionGroups {
    fn from_iter<I: IntoIterator<Item = Vec<u32>>>(iter: I) -> Self {
        PartitionGroups::new(iter.into_iter().collect())
    }
}

/// Where a message or a timer came from: the sequence number of the last
/// record its sender wrote before sending or arming it, or none for a
/// message injected from outside the system. One word (`u64::MAX` is
/// none), so the records carrying it stay within 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin(u64);

impl Origin {
    /// No origin: the message was injected from outside the system.
    pub const NONE: Origin = Origin(u64::MAX);

    /// The record with sequence number `seq`.
    pub fn at(seq: u64) -> Self {
        Origin(seq)
    }

    /// The origin's sequence number, if it has one.
    pub fn seq(self) -> Option<u64> {
        (self != Origin::NONE).then_some(self.0)
    }
}

/// Declares a string vocabulary once: the enum, the stable string each
/// variant is written as, and (through [`Field`]) the reader that takes
/// exactly those strings back.
macro_rules! str_enum {
    (
        $(#[$meta:meta])*
        $name:ident, $what:literal {
            $( $(#[$vmeta:meta])* $variant:ident = $s:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant ),*
        }

        impl $name {
            /// The stable string used in JSONL output.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $name::$variant => $s ),*
                }
            }
        }

        impl Field for $name {
            fn write(&self, out: &mut String) {
                crate::codec::push_json_str(out, self.as_str());
            }
            fn read(v: &JVal<'_>) -> Result<Self, String> {
                match v.as_str()? {
                    $( $s => Ok($name::$variant), )*
                    other => Err(format!(concat!("unknown ", $what, " {:?}"), other)),
                }
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut crate::codec::Rng) -> Self {
                let all = [$( $name::$variant ),*];
                all[rng.next() as usize % all.len()]
            }
        }
    };
}

str_enum! {
    /// Why the network dropped a message.
    DropCause, "drop cause" {
        /// The sending node was crashed at send (or delivery) time.
        SourceDown = "source_down",
        /// The destination node was crashed.
        DestDown = "dest_down",
        /// Source and destination were in different partition groups.
        Partitioned = "partitioned",
        /// The link's random loss fired.
        Loss = "loss",
        /// The *directed* link from source to destination was blocked
        /// (asymmetric partition); the reverse direction may still work.
        LinkBlocked = "link_blocked",
    }
}

str_enum! {
    /// How a client operation ended.
    OpOutcome, "outcome" {
        /// A quorum was assembled and the operation took effect.
        Completed = "completed",
        /// The merged view made the operation undefined (e.g. Deq of an
        /// empty queue) and it was refused.
        Refused = "refused",
        /// No quorum answered before the client timeout.
        TimedOut = "timed_out",
    }
}

str_enum! {
    /// Which quorum a client was assembling.
    QuorumPhase, "quorum phase" {
        /// The initial (read) quorum.
        Read = "read",
        /// The final (write) quorum.
        Write = "write",
    }
}

/// The event table's expander. Each entry of the table is
/// `Variant = "tag" { field: Type, … }`, a bare `Variant = "tag"`, or
/// `Variant = "tag" (Box<Payload { field, … }>)` for a fat, rare payload
/// struct; fields are written in the order listed, under their own names.
/// From the one table come the [`EventKind`] enum, [`EventKind::tag`],
/// [`EventKind::TAGS`], the JSONL writer and the JSONL reader, so a
/// variant or a field cannot be in one of them and missing from another.
macro_rules! event_table {
    // A pattern that binds a tuple variant's box (an optional group in
    // the transcriber must mention one of its own metavariables).
    (@bind $payload:ident $name:ident) => { $name };
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $tag:literal
        $({ $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)? })?
        $(( Box<$payload:ident { $( $pfield:ident ),* }> ))?
    ),* $(,)?) => {
        /// One kind of observable action, with its payload.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {$(
            $(#[$vmeta])*
            $variant $({ $( $(#[$fmeta])* $field: $fty ),* })? $(( Box<$payload> ))?,
        )*}

        impl EventKind {
            /// Every `kind` tag of the format, in table order.
            pub const TAGS: &'static [&'static str] = &[$( $tag ),*];

            /// The stable `kind` tag used in JSONL output.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $tag, )*
                }
            }

            /// Appends `,"field":value` for each field, in table order.
            pub(crate) fn write_fields(&self, out: &mut String) {
                match self {$(
                    EventKind::$variant
                        $({ $( $field ),* })?
                        $(( event_table!(@bind $payload boxed) ))?
                    => {
                        $($(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            Field::write($field, out);
                        )*)?
                        $(
                            let $payload { $( $pfield ),* } = &**boxed;
                            $(
                                out.push_str(concat!(",\"", stringify!($pfield), "\":"));
                                Field::write($pfield, out);
                            )*
                        )?
                    }
                )*}
            }

            /// Builds the kind tagged `tag` from a parsed line's fields.
            pub(crate) fn read(tag: &str, f: &Fields<'_>) -> Result<EventKind, String> {
                Ok(match tag {
                    $(
                        $tag => EventKind::$variant
                            $({ $( $field: f.get(stringify!($field))? ),* })?
                            $(( Box::new($payload {
                                $( $pfield: f.get(stringify!($pfield))? ),*
                            }) ))?,
                    )*
                    other => return Err(format!("unknown event kind {other:?}")),
                })
            }

            /// The `variant`-th kind of the table with every field drawn
            /// from [`Field::arbitrary`].
            #[cfg(test)]
            #[allow(unused_variables)]
            pub(crate) fn arbitrary(variant: usize, rng: &mut crate::codec::Rng) -> EventKind {
                let makers: &[fn(&mut crate::codec::Rng) -> EventKind] = &[$(
                    |rng| EventKind::$variant
                        $({ $( $field: Field::arbitrary(rng) ),* })?
                        $(( Box::new($payload {
                            $( $pfield: Field::arbitrary(rng) ),*
                        }) ))?,
                )*];
                makers[variant](rng)
            }
        }
    };
}

event_table! {
    /// A message reached its destination's handler.
    MessageDelivered = "message_delivered" {
        /// Receiving node index.
        node: u32,
        /// Sending node index (the receiver, for an injected message).
        src: u32,
        /// World-unique message id.
        msg_id: u32,
        /// The record the message was sent after (see [`Origin`]).
        origin: Origin,
    },
    /// The network dropped a message: at send time, or in flight when
    /// its destination was down at delivery.
    MessageDropped = "message_dropped" {
        /// Sending node index.
        src: u32,
        /// Destination node index.
        dst: u32,
        /// Why it was dropped.
        cause: DropCause,
        /// The dropped message's id.
        msg_id: u32,
        /// The record the message was sent after; none for a send-time
        /// drop (the drop is itself the sender's record) and for an
        /// injected message.
        origin: Origin,
    },
    /// A timer fired at its owner.
    TimerFired = "timer_fired" {
        /// Owning node index.
        node: u32,
        /// The timer's token.
        token: u64,
        /// The record the timer was armed after (see [`Origin`]).
        origin: Origin,
    },
    /// A fault crashed a node.
    NodeCrashed = "node_crashed" {
        /// Crashed node index.
        node: u32,
    },
    /// A fault recovered a node.
    NodeRecovered = "node_recovered" {
        /// Recovered node index.
        node: u32,
    },
    /// A fault installed a partition.
    PartitionSet = "partition_set" {
        /// The partition's groups of node indices, behind one thin
        /// pointer (see [`PartitionGroups`]).
        groups: PartitionGroups,
    },
    /// A fault healed the partition.
    PartitionHealed = "partition_healed",
    /// A fault changed the link loss probability.
    LossRateSet = "loss_rate_set" {
        /// The new loss probability.
        probability: f64,
    },
    /// A client started an operation.
    OpBegin = "op_begin" {
        /// Client node index.
        node: u32,
        /// Client-local invocation id.
        op_id: u32,
        /// Short operation label, e.g. `"Enq(5)"`.
        op: OpLabel,
    },
    /// A client finished an operation.
    OpEnd = "op_end" {
        /// Client node index.
        node: u32,
        /// Client-local invocation id.
        op_id: u32,
        /// How it ended.
        outcome: OpOutcome,
        /// Ticks from begin to end.
        latency: u64,
    },
    /// A client assembled a quorum.
    QuorumAssembled = "quorum_assembled" {
        /// Client node index.
        node: u32,
        /// Client-local invocation id.
        op_id: u32,
        /// Which quorum.
        phase: QuorumPhase,
        /// Number of replicas in the assembled quorum.
        size: u32,
    },
    /// A client's quorum assembly failed (timeout with too few replies).
    QuorumFailed = "quorum_failed" {
        /// Client node index.
        node: u32,
        /// Client-local invocation id.
        op_id: u32,
        /// Which quorum.
        phase: QuorumPhase,
        /// Replies received before the timeout.
        responses: u32,
        /// Replies the assignment required.
        needed: u32,
    },
    /// The degradation monitor observed the history leave one or more
    /// lattice levels. Boxed: the payload is fat and rare, and every
    /// recorded event pays for the enum's largest variant.
    LevelTransition = "level_transition" (Box<LevelTransition { left, now, witness, op_index }>),
    /// A fault gray-degraded a node: still alive and responsive, but
    /// every link touching it runs at a delay multiplier.
    GrayDegraded = "gray_degraded" {
        /// The slowed node.
        node: u32,
        /// The integer delay multiplier now in force (≥ 2).
        multiplier: u32,
    },
    /// A fault restored a gray-degraded node to full speed.
    GrayRestored = "gray_restored" {
        /// The restored node.
        node: u32,
    },
    /// A fault blocked the *directed* link `src → dst` (asymmetric
    /// partition); traffic `dst → src` is unaffected.
    LinkBlocked = "link_blocked" {
        /// Blocked direction: sender.
        src: u32,
        /// Blocked direction: receiver.
        dst: u32,
    },
    /// A fault unblocked the directed link `src → dst`.
    LinkRestored = "link_restored" {
        /// Restored direction: sender.
        src: u32,
        /// Restored direction: receiver.
        dst: u32,
    },
    /// A fault changed the message-duplication probability.
    DuplicationRateSet = "duplication_rate_set" {
        /// The new duplication probability.
        probability: f64,
    },
    /// The network manufactured a duplicate copy of a sent message. The
    /// copy travels under its own `msg_id`, and its delivery (or drop)
    /// names this record as its origin.
    MessageDuplicated = "message_duplicated" {
        /// Sending node index (of the original send).
        src: u32,
        /// Destination node index.
        dst: u32,
        /// The duplicate copy's world-unique id.
        msg_id: u32,
        /// The id of the original message this copy was cloned from.
        orig_msg_id: u32,
    },
    /// Staleness probe: one replica's lag behind the merged frontier.
    ReplicaLagSampled = "replica_lag_sampled" {
        /// The sampled replica.
        site: u32,
        /// Log entries the replica is missing relative to the merged
        /// frontier of all replicas.
        entries_behind: u64,
        /// Sim-time ticks since the replica last matched the merged
        /// frontier.
        time_behind: u64,
    },
    /// Staleness probe: pairwise frontier divergence between two
    /// replicas (entries held by one but not the other).
    FrontierDivergence = "frontier_divergence" {
        /// First replica of the pair (`a < b`).
        a: u32,
        /// Second replica of the pair.
        b: u32,
        /// Total entries by which the two frontiers differ.
        entries: u64,
    },
    /// A degradation SLO error budget ran out. Boxed: fat and rare, like
    /// [`EventKind::LevelTransition`].
    SloBudgetExhausted = "slo_budget_exhausted" (Box<SloViolation { level, budget, spent }>),
    /// Profiling: a hierarchical span opened. Spans nest LIFO within a
    /// trace; `wall_ns` is monotone (nanoseconds since the probe was
    /// enabled, derived from `Instant` — never `SystemTime`), while the
    /// event's `t` carries sim time as usual.
    ProfileSpanEnter = "profile_span_enter" {
        /// Span name (≤ 14 bytes, inline — see [`OpLabel`]).
        name: OpLabel,
        /// Monotone nanoseconds since the probe's anchor.
        wall_ns: u64,
    },
    /// Profiling: the innermost open span closed; `name` matches its
    /// `profile_span_enter`.
    ProfileSpanExit = "profile_span_exit" {
        /// Span name, equal to the matching enter's.
        name: OpLabel,
        /// Monotone nanoseconds since the probe's anchor.
        wall_ns: u64,
    },
    /// Profiling: a monotone counter's accumulated total at flush time.
    /// Hot paths batch increments in the probe and the total is emitted
    /// once, so a trace carries at most a few of these per counter.
    ProfileCounter = "profile_counter" {
        /// Counter name.
        name: OpLabel,
        /// Accumulated total at emission.
        total: u64,
    },
    /// Profiling: one gauge sample, attributed to the innermost span
    /// open at record time (per-depth samples yield per-depth
    /// timelines, e.g. `frontier_nodes`).
    ProfileGauge = "profile_gauge" {
        /// Gauge name.
        name: OpLabel,
        /// Sampled value.
        value: i64,
    },
}

/// A recorded event: sim time, sequence number, and the action.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual time (ticks) at which the event happened.
    pub time: u64,
    /// Monotone per-tracer sequence number (total order within a trace).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kind_stays_within_the_hot_path_budget() {
        // Recording copies one `EventKind` per event on the simulator's
        // hot path; the msg_id and origin fields must stay inside the
        // 24-byte layout, not widen every event.
        assert!(std::mem::size_of::<EventKind>() <= 24);
    }

    #[test]
    fn label_push_helpers_render_without_fmt() {
        let mut l = OpLabel::default();
        l.push_str("Enq(");
        l.push_u32(999_999_999);
        l.push_str(")");
        assert_eq!(l.as_str(), "Enq(999999999)");
        let mut n = OpLabel::default();
        n.push_str("Enq(");
        n.push_i64(-42);
        n.push_str(")");
        assert_eq!(n.as_str(), "Enq(-42)");
        let mut z = OpLabel::default();
        z.push_u32(0);
        assert_eq!(z.as_str(), "0");
        // Truncation at capacity, never a panic.
        let mut t = OpLabel::default();
        t.push_str("abcdefghijklmnop");
        t.push_u32(99);
        assert_eq!(t.as_str().len(), OpLabel::CAP);
    }

    #[test]
    fn every_kind_has_a_distinct_tag() {
        let mut tags = EventKind::TAGS.to_vec();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), EventKind::TAGS.len());
    }
}
