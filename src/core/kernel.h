// The SemperOS microkernel (paper §3, §4).
//
// One Kernel instance runs on each kernel PE and exclusively manages the PEs
// of its group: their VPEs, their capabilities, and their DTU endpoints.
// Kernels coordinate through inter-kernel calls (IKCs) to present a single
// system image. This class is the paper's primary contribution — the
// distributed capability management protocols, implemented one protocol
// seam per file in kernel.cpp and kernel_{exchange,revoke,migrate,ft,ikc}.cpp:
//
//  * capability exchange (obtain/delegate) with the anomaly mitigations of
//    §4.3.2: obtain leaves the obtainer's tree untouched until the owner
//    confirmed (orphans cleaned up via notification); delegate uses a
//    two-way handshake so a revoked parent can never yield a valid child;
//  * two-phase mark-and-sweep revocation per Algorithm 1 (§4.3.3): phase 1
//    marks the subtree and fans out REVOKE_REQ IKCs for remote children;
//    phase 2 deletes the local subtree only after every remote reply
//    arrived, so completed revokes are always complete ("Incomplete"
//    anomaly); exchanges touching marked capabilities are denied
//    ("Pointless" anomaly); at most two kernel threads service incoming
//    revoke IKCs (denial-of-service bound for capability ping-pong chains);
//  * cooperative multithreading (§4.2): operations that wait on other
//    kernels suspend as explicit pending-operation objects instead of
//    blocking the kernel, which keeps cyclic revocations (A1 -> B2 -> C1)
//    deadlock-free; the thread pool is statically sized
//    V_group + K_max * M_inflight (Eq. 1) and never grows at runtime;
//  * kernel-to-kernel flow control (§4.1): at most `max_inflight` (4)
//    request messages per peer kernel are in flight; excess requests queue
//    at the sender so DTU receive slots can never overflow;
//  * PE migration (beyond the paper, which kept the membership table
//    static): a PE's VPE and capability partition move between kernels via
//    MIGRATE_VPE, the replicated DDL membership table is epoch-versioned
//    and converges through EPOCH_UPDATE broadcasts, and the previous owner
//    forwards stale-epoch requests for exactly one settle round — so
//    Algorithm 1's completeness guarantee holds across the handoff.
//
// Execution model: the kernel PE is a serial resource (one single-threaded
// core, §4.2). Message handlers mutate kernel state in arrival order and
// charge their modelled cycle cost to the PE's executor; outgoing messages
// become visible when the handler's cost has elapsed. Interleavings between
// suspended operations correspond to the paper's preemption points.
#ifndef SEMPEROS_CORE_KERNEL_H_
#define SEMPEROS_CORE_KERNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/pool_alloc.h"
#include "base/ring.h"
#include "base/status.h"
#include "base/types.h"
#include "core/capability.h"
#include "core/ddl.h"
#include "core/protocol.h"
#include "core/timing.h"
#include "ft/ft.h"
#include "obs/trace.h"
#include "pe/pe.h"
#include "sim/inline_fn.h"

namespace semperos {

// Aggregate counters exposed for benchmarks and tests.
struct KernelStats {
  uint64_t syscalls = 0;
  uint64_t obtains = 0;
  uint64_t delegates = 0;
  uint64_t revokes = 0;
  uint64_t derives = 0;
  uint64_t activates = 0;
  uint64_t sessions_opened = 0;
  uint64_t spanning_obtains = 0;
  uint64_t spanning_delegates = 0;
  uint64_t spanning_revokes = 0;
  uint64_t ikc_sent = 0;
  uint64_t ikc_received = 0;
  uint64_t ikc_flow_queued = 0;     // requests delayed by the 4-in-flight cap
  uint64_t caps_created = 0;
  uint64_t caps_deleted = 0;
  uint64_t orphans_cleaned = 0;     // "Orphaned" anomaly cleanups
  uint64_t pointless_denials = 0;   // exchanges denied on marked caps
  uint64_t invalid_prevented = 0;   // delegate acks failed: parent revoked
  uint64_t revoke_reqs_queued = 0;  // waited for one of the 2 revoke threads
  // PE migration (dynamic membership).
  uint64_t migrations = 0;          // completed as the source kernel
  uint64_t caps_migrated = 0;       // records packed (source) or installed (dest)
  uint64_t ikc_forwarded = 0;       // stale-epoch requests relayed to the owner
  uint64_t epoch_updates = 0;       // EPOCH_UPDATE IKCs applied
  uint64_t syscalls_frozen = 0;     // syscalls answered with kVpeMigrating
  // Fault tolerance (src/ft).
  uint64_t hb_sent = 0;             // heartbeat pings sent
  uint64_t hb_acked = 0;            // heartbeat acknowledgements received
  uint64_t ft_suspicions = 0;       // peers locally declared silent
  uint64_t ft_votes = 0;            // distinct suspicion votes tallied (leader)
  uint64_t ft_failovers = 0;        // failure verdicts applied (recoveries run)
  uint64_t ft_refusals = 0;         // verdicts refused for lack of quorum
  uint64_t ft_pes_adopted = 0;      // dead-group PEs taken over by this kernel
  uint64_t ft_orphan_roots = 0;     // orphaned subtrees revoked at recovery
  uint64_t ft_edges_pruned = 0;     // tree edges into the dead range dropped
  uint64_t ft_ikcs_aborted = 0;     // pending IKCs to a dead kernel unwedged
  // Cross-kernel chatter optimisation (--cap-batching).
  uint64_t ikc_batches_sent = 0;      // kCapBatch containers put on the wire
  uint64_t ikc_batched_ops = 0;       // requests that rode inside a container
  uint64_t ikc_batch_ops_max = 0;     // largest container (sub-requests)
  uint64_t ikc_batch_mixed_epoch = 0; // containers whose entries straddle an epoch
  uint64_t ikc_relays_pipelined = 0;  // stale requests forwarded without proxying
  uint64_t ikc_late_replies = 0;      // direct replies landing after a spurious abort
  uint64_t ddl_cache_hits = 0;        // remote-DDL lookups served by the cache
  uint64_t ddl_cache_misses = 0;      // remote-DDL lookups that paid the full decode
  // Per-IKC-type logical send/receive counts (containers count as kCapBatch;
  // their sub-requests count individually under their own op).
  uint64_t ikc_op_sent[kNumIkcOps] = {};
  uint64_t ikc_op_received[kNumIkcOps] = {};
  uint32_t threads_in_use = 0;
  uint32_t threads_in_use_max = 0;
};

// A revocation in progress (one per revoke root per kernel). Implements the
// bookkeeping of Algorithm 1: a counter of outstanding remote replies and
// the deferred sweep.
struct RevokeTask {
  uint64_t id = 0;
  DdlKey root;
  uint32_t outstanding = 0;  // remote REVOKE_REQs + local-task dependencies
  uint32_t marked = 0;       // capabilities marked by this task (phase 1)
  bool initiator = false;    // true: local syscall; false: peer kernel IKC
  bool admin = false;        // true: kernel-internal (VPE kill)
  bool suspended = false;    // the initiating thread paused on remote replies
  // Initiator: syscall context to reply to. Participant: IKC msg to reply to.
  VpeId vpe = kInvalidVpe;
  EpId reply_recv_ep = 0;
  Message reply_msg;
  uint64_t req_token = 0;
  InlineFn admin_done;
  // Parent to unlink the root from once the subtree is gone (initiator and
  // admin tasks only; for participant tasks the requesting kernel's own
  // revocation covers the parent).
  DdlKey parent_unlink;
  // Tasks / requests waiting for this task's completion (overlapping
  // revokes; "revoke_syscall_hdlr will also wait for the already
  // outstanding kernel replies", §4.3.3).
  std::vector<InlineFn> on_complete;
  // Remote children discovered by the marking pass, grouped by owning
  // kernel; flushed as one REVOKE_REQ per child.
  std::map<KernelId, std::vector<DdlKey>> remote_children;
};

// A PE migration in progress at the source kernel. Three phases:
//   kQuiesce  — the VPE is frozen (syscalls/exchanges denied with the
//               retryable kVpeMigrating); the source polls until every
//               in-flight operation touching the moving partition drained;
//   kTransfer — the partition snapshot is in flight to the destination;
//               requests for the moving partition park here and are
//               re-dispatched (and then forwarded) once the handoff landed;
//   kSettle   — the destination owns the partition; the source broadcast
//               EPOCH_UPDATE and waits for every peer's acknowledgement.
//               Pairwise-FIFO channels guarantee that no stale request can
//               arrive after its sender's ack, so when the last ack is in,
//               forwarding is provably no longer needed (one settle round).
struct MigrateTask {
  enum class Phase { kQuiesce, kTransfer, kSettle };

  uint64_t id = 0;
  NodeId pe = kInvalidNode;
  KernelId dst = kInvalidKernel;
  Phase phase = Phase::kQuiesce;
  uint64_t epoch = 0;          // membership epoch assigned to the handoff
  uint32_t outstanding = 0;    // EPOCH_UPDATE acks still missing
  uint32_t quiesce_polls = 0;
  UniqueFn<void(ErrCode)> done;
  // Requests for the moving partition that arrived during kTransfer.
  struct ParkedIkc {
    EpId ep = 0;
    Message msg;
    IkcMsg req;
  };
  std::vector<ParkedIkc> parked;
  // Locally-originated tree unlinks against the moving partition that
  // arrived after its snapshot was packed. Applying them to the local copy
  // would be silently lost when the destination installs the (stale)
  // snapshot; they re-run once the handoff resolved — routed to the new
  // owner on success, applied locally on refusal.
  std::vector<InlineFn> deferred_unlinks;
  // Observability: migrations originate at the platform, so they root their
  // own trace; the kMigration span covers freeze -> settled. The transfer
  // IKC and the settle-round EPOCH_UPDATEs nest under it.
  uint64_t trace = 0;
  uint64_t trace_span = 0;
  Cycles trace_start = 0;
};

class Kernel : public Program {
 public:
  // DTU endpoint layout of a kernel PE (paper §5.1): 2 send + 14 receive.
  // EP 0 receives replies from asked parties/services, EP 1 carries the
  // failure detector's heartbeats (outside the credit-based IKC flow, so a
  // dead peer cannot wedge detection), EPs 2..7 receive system calls
  // (6 x 32 slots = 192 VPEs max per kernel), EPs 8..15 receive
  // inter-kernel calls (8 x 32 slots; 4 in flight per peer => 64 kernels
  // max).
  static constexpr EpId kEpAskReply = 0;
  static constexpr EpId kEpHeartbeat = 1;
  static constexpr EpId kEpSyscall0 = 2;
  static constexpr uint32_t kNumSyscallEps = 6;
  static constexpr EpId kEpKernel0 = 8;
  static constexpr uint32_t kNumKernelEps = 8;
  static constexpr uint32_t kMaxVpesPerKernel = kNumSyscallEps * 32;
  static constexpr uint32_t kMaxKernels = 64;
  static constexpr uint32_t kMaxRevokeThreads = 2;  // paper §4.3.3

  struct Config {
    KernelId id = 0;
    KernelMode mode = KernelMode::kSemperOSMulti;
    TimingModel timing;
    MembershipTable membership;          // PE -> kernel (replicated, static)
    std::vector<NodeId> kernel_nodes;    // kernel id -> kernel PE
    uint32_t max_inflight = 4;           // M_inflight per peer kernel
    uint32_t service_ask_inflight = 64;  // kernel -> service ask window
    // Cross-kernel chatter optimisation (--cap-batching, default on):
    // transport-level coalescing of same-destination capability requests
    // into kCapBatch containers, pipelined stale-epoch forwarding (the
    // final owner replies to the origin directly), and the
    // epoch-invalidated remote-DDL cache. Off reproduces the legacy
    // modeled results bit for bit. The platform expresses off's coalescing
    // as batch_max_ops = 1 (a batch of one leaves as the bare request), so
    // this flag is read in exactly three places, the mode's only real
    // differences: DdlDecodeCost (the cache), MaybeForwardIkc (proxy leg
    // instead of relay) and OnIkc (an unknown reply token is fatal).
    bool cap_batching = true;
    // Flush window: an open per-peer batch flushes when this many cycles
    // elapsed since it opened, or when it holds batch_max_ops requests,
    // or when a non-batchable message must go to the same peer (FIFO).
    Cycles batch_window = 200;
    uint32_t batch_max_ops = 8;
    // Fault tolerance (src/ft). `ft` only stores the detector parameters;
    // heartbeats start when the platform arms the detector via
    // AdminStartFailureDetector. `pe_types` lets adopters rebuild VPE state
    // for a dead group's PEs; `on_failover` lets the platform mirror the
    // membership changes a quorum leader decrees mid-run.
    FtConfig ft;
    std::vector<PeType> pe_types;  // node -> tile type (empty: assume user)
    // Invoked by a quorum leader with the decreed takeover plan, so the
    // platform mirrors exactly what the kernels applied (no recompute).
    std::function<void(KernelId dead, uint64_t epoch, const std::vector<TakeoverAssignment>&)>
        on_failover;
  };

  explicit Kernel(Config config);

  // --- Program interface ---
  void Start() override;

  // --- Platform/admin interface (boot-time wiring and tests) ---

  // Registers a VPE running on `node` with this kernel. Must happen before
  // the VPE issues system calls.
  void AdminCreateVpe(NodeId node, bool is_service);

  // Installs a root memory capability (selector returned) for `vpe`,
  // covering [base, base+size) on memory tile `mem_node`. Used at boot to
  // give services their filesystem image region.
  CapSel AdminGrantMem(VpeId vpe, NodeId mem_node, uint64_t base, uint64_t size, uint32_t perms);

  // Kills a VPE: marks it dead and revokes every capability it holds.
  // `done` fires when all revocations completed.
  void AdminKillVpe(VpeId vpe, InlineFn done);

  // Migrates the PE (and its VPE + capability partition) from this kernel
  // to `dst`: freezes the VPE, quiesces in-flight operations on the moving
  // partition, transfers the state with a MIGRATE_VPE IKC, retargets the
  // PE's syscall endpoint, and broadcasts the membership change as an
  // epoch-versioned EPOCH_UPDATE. `done` fires with kOk once every peer
  // acknowledged the new epoch (no more forwarding needed), or with an
  // error if the migration could not start.
  void AdminMigratePe(NodeId pe, KernelId dst, UniqueFn<void(ErrCode)> done);

  // Graceful shutdown (IKC functional group 1, paper §4.1): kills every
  // VPE of this group (revoking all their capabilities, including remote
  // copies), refuses further system calls, and notifies all peer kernels.
  // `done` fires when the teardown settled.
  void AdminShutdown(InlineFn done);
  bool shutting_down() const { return shutting_down_; }

  // --- Fault tolerance (src/ft) ---

  // Simulated crash: freezes this kernel's state mid-flight and powers the
  // node off at the interconnect (no announcement, unlike AdminShutdown —
  // peers only observe silence). Driven by Platform::KillKernel.
  void AdminKill();
  bool dead() const { return dead_; }

  // Arms the failure detector: heartbeats every live peer each
  // `ft.heartbeat_period` cycles until `ft.monitor_until` (absolute time).
  // A peer silent for `ft.heartbeat_timeout` is suspected; suspicion votes
  // flow to the lowest-id unsuspected kernel, which applies and broadcasts
  // the failure verdict once a majority of all configured kernels concurs.
  void AdminStartFailureDetector(const FtConfig& ft);

  // This kernel's current verdict about `peer`.
  FtVerdict ft_verdict(KernelId peer) const;
  // When the last failure verdict was applied / the last recovery finished
  // (all orphaned subtrees revoked and pending IKCs unwedged) here; 0 if
  // never. Workloads use these for detection/recovery latency.
  Cycles ft_verdict_at() const { return ft_verdict_at_; }
  Cycles ft_recovered_at() const { return ft_recovered_at_; }
  bool ft_recovery_done() const { return ft_pending_recovery_ == 0 && ft_recovered_at_ != 0; }

  // --- Introspection ---
  // Human-readable dump of this kernel's capability forest (per VPE:
  // selector, type, DDL key, parent and child edges). Cross-kernel edges
  // are marked with the owning kernel id.
  std::string DumpCaps() const;

  KernelId id() const { return config_.id; }
  const KernelStats& stats() const { return stats_; }
  KernelStats& mutable_stats() { return stats_; }
  const Config& config() const { return config_; }
  bool booted() const { return booted_; }
  const VpeState* FindVpe(VpeId vpe) const;
  Capability* FindCap(DdlKey key) const { return caps_.Find(key); }
  const CapSpace& caps() const { return caps_; }
  // Read-only view of every VPE this kernel manages (src/audit walks it).
  const VpeTable& vpes() const { return vpes_; }
  Capability* CapOf(VpeId vpe, CapSel sel) const;
  size_t PendingOps() const {
    return obtains_.size() + delegates_.size() + revoke_tasks_.size() + parked_delegates_.size() +
           asks_.size() + ikcs_.size() + migrate_tasks_.size();
  }
  // Per-class counts of the suspended operations behind PendingOps(), for
  // diagnostics ("what exactly is wedged"): obtains, delegates, revokes,
  // parked delegates, asks, in-flight IKCs, migrations.
  std::string PendingOpsBreakdown() const {
    std::string s;
    auto add = [&s](const char* name, size_t n) {
      if (n != 0) {
        s += s.empty() ? "" : ", ";
        s += std::to_string(n) + " " + name;
      }
    };
    add("obtains", obtains_.size());
    add("delegates", delegates_.size());
    add("revokes", revoke_tasks_.size());
    add("parked delegates", parked_delegates_.size());
    add("asks", asks_.size());
    add("ikcs", ikcs_.size());
    add("migrations", migrate_tasks_.size());
    return s;
  }
  uint32_t ThreadPoolSize() const;  // Eq. 1: V_group + K_max * M_inflight
  uint32_t PeerCount() const { return static_cast<uint32_t>(config_.kernel_nodes.size()) - 1; }

  // Called by the platform once all programs configured their endpoints;
  // downgrades every user DTU in the group (NoC-level isolation).
  void FinishBoot(const std::vector<ProcessingElement*>& group_pes);

 private:
  static constexpr const char* kTag = "kernel";  // log tag

  // Runs `done` once it was called `count` times, one call per
  // sub-operation of an admin action. Copies share the count, so every
  // sub-operation gets its own copy.
  class Countdown {
   public:
    Countdown(uint32_t count, InlineFn done)
        : state_(std::make_shared<State>(State{count, std::move(done)})) {}
    void operator()() const {
      if (--state_->remaining == 0 && state_->done) {
        state_->done();
      }
    }

   private:
    struct State {
      uint32_t remaining;
      InlineFn done;
    };
    std::shared_ptr<State> state_;
  };

  // ===== Pending distributed operations (suspended kernel threads) =====

  // A system call in service: where to reply. Moved, never copied, down the
  // continuation chain that finally replies.
  struct SyscallCtx {
    VpeId vpe = kInvalidVpe;
    EpId recv_ep = 0;
    Message msg;
    // Observability: the kSyscall span covering this call's service. The id
    // is preallocated at arrival so IKCs/asks issued on the call's behalf
    // can parent under it; ReplySyscall records the completed span. The
    // trace id and the user-side parent live in msg.body.
    uint64_t trace_span = 0;
    Cycles trace_start = 0;
  };

  // The obtaining VPE is sc.vpe.
  struct ObtainOp {
    uint64_t token = 0;
    SyscallCtx sc;
    DdlKey child_key;                    // key proposed for the new capability
    NodeId service_node = kInvalidNode;  // for session EP setup
    bool open_session = false;
  };
  // A local obtain's continuation holds `this` and its ObtainOp in place.
  static_assert(sizeof(ObtainOp) + sizeof(void*) <= InlineFn::kInlineBytes);

  // The delegating VPE is sc.vpe.
  struct DelegateOp {
    uint64_t token = 0;
    SyscallCtx sc;
    DdlKey cap;  // the delegated (parent) capability, owned locally
    VpeId peer = kInvalidVpe;
  };

  // Receiver-side parked delegate (two-way handshake, waiting for the ACK).
  struct ParkedDelegate {
    DdlKey child_key;
    DdlKey parent_key;
    VpeId receiver = kInvalidVpe;
    CapPayload payload;
    KernelId from_kernel = kInvalidKernel;
  };

  using AskReplyFn = UniqueFn<void(const AskReply&)>;
  using IkcReplyFn = UniqueFn<void(const IkcReply&)>;

  // Ask sent to a party/service, waiting for the AskReply. Carries the
  // asked node so migration quiesce can tell whether an exchange-ask still
  // targets the moving partition (one map, one entry per ask).
  struct PendingAsk {
    uint64_t token = 0;
    NodeId node = kInvalidNode;
    AskReplyFn cb;
    // Observability: the kAsk span (round trip to the party) plus the trace
    // context to restore before `cb` runs, so spans caused by the
    // continuation stay linked to the request.
    uint64_t trace = 0;
    uint64_t trace_parent = 0;
    uint64_t trace_span = 0;
    Cycles trace_start = 0;
    uint16_t trace_op = 0;
  };

  // IKC request awaiting its reply. Carries the addressed peer so a failure
  // recovery can complete every call wedged on a dead kernel. When the
  // request was relayed onward by a stale-epoch forwarder (--cap-batching),
  // kRelayNotice re-keys `peer` to the hop's destination; `relay_hops`
  // orders those re-keys (notices from different forwarders are not FIFO
  // relative to each other — the latest hop must win).
  struct PendingIkc {
    uint64_t token = 0;
    KernelId peer = kInvalidKernel;
    uint32_t relay_hops = 0;
    IkcReplyFn cb;
    // Observability: the kIkcRtt span (request out -> reply callback). Its
    // id travels as the request's trace_parent, so everything the remote
    // kernel does on this call's behalf nests under the round trip.
    uint64_t trace = 0;
    uint64_t trace_parent = 0;
    uint64_t trace_span = 0;
    Cycles trace_start = 0;
    uint16_t trace_op = 0;
  };

  // Per-peer-kernel flow control state (§4.1) plus the open request batch
  // (--cap-batching): batchable requests buffer in `batch` until a flush
  // trigger fires, then leave as one kCapBatch container through `queue`.
  struct PeerState {
    uint32_t credits = 0;
    Ring<std::shared_ptr<IkcMsg>> queue;
    std::vector<std::shared_ptr<IkcMsg>> batch;
    bool batch_timer_armed = false;
    Cycles batch_opened = 0;  // obs: when the open batch started buffering
  };

  // ===== Observability (src/obs) =====
  // The causal trace context of the operation currently executing on this
  // kernel: `trace` names the request, `parent` the enclosing span. Set at
  // every dispatch point (syscall, IKC request/reply, ask reply) and
  // stashed into the pending-operation objects across suspensions, so
  // messages sent by asynchronous continuations stay linked.
  struct TraceCtx {
    uint64_t trace = 0;
    uint64_t parent = 0;
  };
  // An IKC request in service, keyed by (requester node, token): the kIkc
  // handler span opens at dispatch and closes centrally in ReplyIkc, which
  // also stamps the reply's trace context. Relays rewrite the Message's
  // src_node to the walk's origin before dispatch, so the key is stable
  // from dispatch to (possibly long-deferred) reply.
  struct IkcHandling {
    uint64_t trace = 0;
    uint64_t parent = 0;
    uint64_t span = 0;
    Cycles start = 0;
    uint16_t op = 0;
  };
  obs::Tracer* tracer() const { return pe_ != nullptr ? pe_->tracer() : nullptr; }
  // Records a completed span; callers already verified `tr` is non-null and
  // the operation is traced.
  static void RecordSpan(obs::Tracer* tr, uint64_t trace, uint64_t span, uint64_t parent,
                         Cycles start, Cycles end, uint32_t entity, obs::SpanKind kind,
                         uint16_t op);
  // Stamps cur_trace_ onto an outgoing message body (0s when untraced).
  void StampTrace(MsgBody* body) const {
    body->trace_id = cur_trace_.trace;
    body->trace_parent = cur_trace_.parent;
  }

  // ===== Message handlers =====
  void OnSyscall(EpId ep, const Message& msg);
  void OnIkc(EpId ep, const Message& msg);
  // The request dispatch half of OnIkc, also re-entered when a request
  // parked during a migration transfer is released.
  void DispatchIkcRequest(EpId ep, const Message& msg, const IkcMsg& req);
  void OnAskReply(const Message& msg);

  // ===== System call implementations =====
  void SysNoop(SyscallCtx ctx, const SyscallMsg& req);
  void SysOpenSession(SyscallCtx ctx, const SyscallMsg& req);
  void SysExchange(SyscallCtx ctx, const SyscallMsg& req);
  void SysObtain(SyscallCtx ctx, const SyscallMsg& req);
  void SysDelegate(SyscallCtx ctx, const SyscallMsg& req);
  void SysRevoke(SyscallCtx ctx, const SyscallMsg& req);
  void SysActivate(SyscallCtx ctx, const SyscallMsg& req);
  void SysDeriveMem(SyscallCtx ctx, const SyscallMsg& req);
  void SysRegisterService(SyscallCtx ctx, const SyscallMsg& req);

  // ===== Obtain path (also used for open-session and session exchange) =====
  // Owner-side: ask the party, link the proposed child under the shared
  // capability, return its description.
  using ObtainDoneFn =
      UniqueFn<void(ErrCode, DdlKey parent, const CapPayload&, MsgRef, uint64_t session)>;
  void OwnerSideObtain(AskOp ask_op, DdlKey owner_cap, VpeId owner_vpe, CapSel owner_sel,
                       VpeId client, DdlKey child_key, MsgRef opaque, uint64_t session,
                       ObtainDoneFn done);
  void FinishObtain(ObtainOp op, ErrCode err, DdlKey parent, const CapPayload& payload,
                    MsgRef opaque);

  // ===== Delegate path =====
  void OwnerSideDelegate(const IkcMsg& req, EpId recv_ep, const Message& msg);
  void FinishDelegate(DelegateOp op, ErrCode err, DdlKey child_key);
  // Applies a delegate ACK against the parked child. `reply` (may be null)
  // runs after the charged cost with the outcome; used both by the IKC
  // handler and for local delivery when the receiver's partition migrated
  // onto the delegator's kernel mid-handshake.
  void ApplyDelegateAck(bool abort, DdlKey child_key, UniqueFn<void(ErrCode)> reply);
  // Removes `child` from `parent`'s children list, wherever the parent
  // currently lives: locally when this kernel owns the parent's partition,
  // via CHILD_DROP / ORPHAN_NOTIFY IKC otherwise. If the parent's partition
  // is mid-transfer (snapshot already packed), the unlink is deferred until
  // the handoff resolves so it cannot be lost to the stale snapshot.
  void UnlinkChildAtParent(DdlKey parent, DdlKey child, bool orphan);

  // ===== Revocation (Algorithm 1) =====
  RevokeTask* NewRevokeTask(DdlKey root);
  // Phase 1: returns the extra kernel-cycle cost of the marking pass.
  Cycles MarkPass(Capability* cap, RevokeTask* task);
  // Sends one REVOKE_REQ per remote child collected by the marking pass.
  // Returns the send cost.
  Cycles FlushRevokeRequests(RevokeTask* task);
  void OnRevokeReq(EpId ep, const Message& msg, const IkcMsg& req);
  void ProcessRevokeReq(EpId ep, Message msg, const IkcMsg& req);
  void RevokeDependencyDone(uint64_t task_id);
  void CheckRevokeComplete(RevokeTask* task);
  // Phase 2: deletes this task's marked subtree; returns (cost, deleted).
  Cycles SweepPass(DdlKey key, RevokeTask* task, uint32_t* deleted);
  void CompleteRevokeTask(RevokeTask* task);
  void DrainRevokeQueue();

  // ===== PE migration (dynamic membership) =====
  // True while any in-flight operation still touches partition `pe`.
  bool MigrationBlocked(NodeId pe) const;
  void PollMigrateQuiesce(uint64_t task_id);
  void StartMigrateTransfer(uint64_t task_id);
  void FinishMigrateTransfer(uint64_t task_id, const IkcReply& reply);
  void CompleteMigration(uint64_t task_id, ErrCode err);
  void OnMigrateVpe(EpId ep, const Message& msg, const IkcMsg& req);
  // Updates the membership table and fixes up service-directory routing.
  void ApplyMembershipUpdate(NodeId pe, KernelId new_owner, uint64_t epoch);
  // Destination kernel of an in-progress transfer of partition `pe`, or
  // kInvalidKernel. Used to re-route REVOKE_REQs for moving subtrees.
  KernelId MigratingTo(NodeId pe) const;
  // The DDL partition an IKC request routes by, or kInvalidNode for ops
  // that are not capability-targeted (hello, announce, epoch update, ...).
  static NodeId RoutingPartition(const IkcMsg& req);
  // Parks (during a transfer) or forwards (stale sender epoch) a request
  // for a partition this kernel no longer owns. Returns true if handled.
  bool MaybeForwardIkc(EpId ep, const Message& msg, const IkcMsg& req);

  // ===== Fault tolerance (src/ft) =====
  void OnHeartbeat(EpId ep, const Message& msg);
  // Periodic detector work: ping live peers, time out silent ones, re-send
  // suspicion votes until a verdict lands.
  void HeartbeatTick();
  void RaiseSuspicion(KernelId peer);
  // Lowest-id kernel this kernel does not currently suspect — where votes go.
  KernelId FtLeader() const;
  void SendSuspectVotes();
  // Leader-side tally; a new vote may push `dead` over the quorum (verdict)
  // or complete coverage below it (refusal).
  void RecordSuspectVote(KernelId dead, KernelId voter);
  void StartFailover(KernelId dead);
  // Survivor-side recovery: apply the takeover plan under `epoch`, adopt
  // assigned PEs, prune edges into the dead range, revoke orphaned
  // subtrees, and unwedge pending IKCs to the dead kernel. Idempotent.
  void RecoverFromFailure(KernelId dead, uint64_t epoch);
  // Rebuilds VPE state for an adopted PE and retargets its syscall EP.
  void AdoptPe(NodeId pe);
  // Completes every pending IKC addressed to `dead` with kUnreachable.
  void AbortPendingIkcsTo(KernelId dead);
  void FtRecoveryStepDone();

  // ===== Capability helpers =====
  DdlKey AllocKey(VpeId creator, CapType type);
  Capability* CreateCap(VpeState* vpe, CapType type, const CapPayload& payload, DdlKey parent);
  void UnlinkFromParent(Capability* cap);

  // ===== IKC engine =====
  KernelId KernelOf(DdlKey key) const { return config_.membership.KernelOfKey(key); }
  KernelId KernelOfVpe(VpeId vpe) const { return config_.membership.KernelOf(vpe); }
  bool IsLocalVpe(VpeId vpe) const { return KernelOfVpe(vpe) == config_.id; }
  void SendIkc(KernelId peer, std::shared_ptr<IkcMsg> msg, IkcReplyFn cb);
  void DispatchIkc(KernelId peer);
  void ReplyIkc(EpId recv_ep, const Message& msg, std::shared_ptr<IkcReply> reply);
  // Queues ReplyIkc on the egress sequencer (see Emit), released at `ready`.
  void EmitIkcReply(Cycles ready, EpId recv_ep, Message msg, std::shared_ptr<IkcReply> reply) {
    Emit(ready, [this, recv_ep, msg = std::move(msg), reply = std::move(reply)]() mutable {
      ReplyIkc(recv_ep, msg, std::move(reply));
    });
  }
  void BroadcastHello();
  // --- Cross-kernel chatter optimisation (--cap-batching) ---
  // Ops eligible for kCapBatch coalescing: per-capability request traffic.
  // Control messages (hello/shutdown/migrate/epoch/ft) always go solo.
  static bool IsBatchableOp(IkcOp op);
  // Puts `msg` on the wire path to `peer`: batchable ops buffer in the
  // peer's open batch (flush window / size cap / FIFO triggers), everything
  // else flushes the batch first and enqueues directly.
  void EnqueueIkc(KernelId peer, std::shared_ptr<IkcMsg> msg);
  // Closes the peer's open batch into one kCapBatch container (or the bare
  // message for a batch of one) and hands it to flow control.
  void FlushBatch(KernelId peer);
  // Relayed forward of a stale-epoch request: preserves the origin's
  // src_kernel/token and registers no pending entry (the final owner
  // replies to the origin directly).
  void SendIkcRelay(KernelId peer, std::shared_ptr<IkcMsg> msg);
  // Shared tail of OnIkc's request path, re-used for each sub-request of a
  // kCapBatch container: park/forward via MaybeForwardIkc, else dispatch.
  void RouteIkcRequest(EpId ep, const Message& msg, const IkcMsg& req);
  // Applies a kRelayNotice at the origin: learned-owner membership hint and
  // the hop-ordered re-key of the pending request's addressed peer (aborts
  // it if the new hop's kernel already failed). Also called directly when a
  // walk loops back through its own origin (a kernel cannot IKC itself).
  void ApplyRelayNotice(const IkcMsg& notice);
  // Modeled cost of sending `op` to `peer` right now: appending to an open
  // batch is cheap (t_.ikc_batch_op); opening one or a non-batchable op pays
  // the full t_.ikc_send (always, at batch_max_ops = 1: no batch stays open).
  Cycles IkcSendCost(KernelId peer, IkcOp op) const;
  // Modeled cost of decoding `key`: remote keys probe the epoch-validated
  // DDL cache (hit: t_.ddl_cache_hit); local keys and cap_batching=off pay
  // the full t_.ddl_decode.
  Cycles DdlDecodeCost(DdlKey key);
  // Same, for paths that route by a peer VPE rather than a concrete key:
  // probes with the partition's canonical VPE key.
  Cycles DdlDecodeCostVpe(VpeId vpe);

  // ===== Party asks =====
  void AskParty(NodeId node, std::shared_ptr<AskMsg> ask, AskReplyFn cb);

  // ===== Service directory =====
  struct ServiceEntry {
    std::string name;
    KernelId kernel = kInvalidKernel;
    DdlKey cap;  // the service capability (owned by `kernel`)
    NodeId node = kInvalidNode;
    VpeId vpe = kInvalidVpe;
  };
  const ServiceEntry* PickService(const std::string& name, VpeId client) const;

  // ===== Replies & cost accounting =====
  void ReplySyscall(SyscallCtx ctx, ErrCode err, CapSel sel = kInvalidSel,
                    const CapPayload& payload = {}, MsgRef opaque = nullptr);
  // Same, with the reply body built up front (err, sel, cap and payload set):
  // a continuation then carries one pointer instead of the reply's fields.
  void ReplySyscall(SyscallCtx ctx, std::shared_ptr<SyscallReply> reply);
  // Charges `cost` on the kernel core, then runs `effects` (sends replies).
  void Finish(Cycles cost, InlineFn&& effects) { pe_->exec().Post(cost, std::move(effects)); }
  // Charges `cost`, then answers the call with `err`.
  void FinishSyscall(Cycles cost, SyscallCtx ctx, ErrCode err) {
    Finish(cost,
           [this, ctx = std::move(ctx), err]() mutable { ReplySyscall(std::move(ctx), err); });
  }
  // Charges `cost` and returns the completion time (for Emit below).
  Cycles Charge(Cycles cost) { return pe_->exec().Occupy(cost); }

  // ===== Kernel-to-kernel egress sequencer =====
  // State mutations happen when a handler runs; the messages announcing
  // them may only leave after the handler's charged cost. To uphold the
  // pairwise FIFO precondition of §4.3.1 *between* operations (e.g. an
  // obtain reply that links a child must reach the peer before a later
  // revocation's REVOKE_REQ for that child), every kernel-to-kernel message
  // is enqueued here at mutation time and released strictly in that order,
  // each no earlier than its `ready` (charge-completion) time.
  void Emit(Cycles ready, InlineFn&& send);
  void DrainEgress();

  // Thread-pool accounting (Eq. 1). CHECK-fails if the statically sized
  // pool would be exceeded — the sizing argument of §4.2 guarantees it
  // never is, and tests rely on that.
  void AcquireThread();
  void ReleaseThread();

  Config config_;
  TimingModel t_;
  KernelStats stats_;
  bool booted_ = false;
  bool shutting_down_ = false;
  // Peers that announced their shutdown; no further IKC traffic to them.
  std::vector<bool> peer_down_;

  // ===== Fault-tolerance state (src/ft) =====
  bool dead_ = false;  // this kernel crashed (fault injection)
  FtConfig ft_;        // active detector parameters (enabled once armed)
  std::vector<Cycles> hb_last_seen_;     // per peer: last heartbeat ack
  std::vector<uint8_t> ft_suspected_;    // per peer: local timeout expired
  std::vector<uint8_t> peer_failed_;     // per peer: quorum-confirmed dead
  std::vector<uint8_t> ft_refused_;      // per peer: verdict refused (quorum)
  std::vector<uint64_t> ft_vote_bits_;   // per peer: bitmask of voters (≤64)
  Cycles ft_verdict_at_ = 0;
  Cycles ft_recovered_at_ = 0;
  // Outstanding recovery steps (orphan-subtree revocations); recovery is
  // done when this drains back to zero.
  uint32_t ft_pending_recovery_ = 0;

  VpeTable vpes_;
  CapSpace caps_;
  uint64_t next_obj_ = 1;
  uint64_t next_token_ = 1;

  // ===== Observability state =====
  TraceCtx cur_trace_;
  PooledMap<std::pair<NodeId, uint64_t>, IkcHandling> ikc_handling_;
  // Failover recovery span: opened when the first verdict is applied here,
  // recorded when ft_pending_recovery_ drains back to zero.
  uint64_t ft_trace_ = 0;
  uint64_t ft_span_ = 0;
  Cycles ft_trace_start_ = 0;

  // Suspended operations, keyed by token (revocations by task id). Pooled
  // nodes: an operation's entry is recycled for the next one.
  PooledHashMap<uint64_t, ObtainOp> obtains_;
  PooledHashMap<uint64_t, DelegateOp> delegates_;
  PooledHashMap<uint64_t, ParkedDelegate> parked_delegates_;
  PooledHashMap<uint64_t, PendingAsk> asks_;
  PooledHashMap<uint64_t, PendingIkc> ikcs_;
  PooledHashMap<uint64_t, RevokeTask> revoke_tasks_;
  std::map<uint64_t, std::unique_ptr<MigrateTask>> migrate_tasks_;
  // PEs this kernel handed off, with their new owner. Syscalls from a
  // migrated VPE still land here until its send endpoint was retargeted;
  // they get the retryable kVpeMigrating so the retry reaches the new
  // kernel instead of a misleading kNoSuchVpe.
  std::map<NodeId, KernelId> migrated_away_;

  // Indexed by kernel id (the self entry is unused) — SendIkc/DispatchIkc
  // touch this on every kernel-to-kernel message.
  std::vector<PeerState> peers_;
  // Epoch-invalidated cache of hot remote-DDL lookups (--cap-batching).
  DdlCache ddl_cache_;
  std::map<std::string, std::vector<ServiceEntry>> services_;

  // Incoming REVOKE_REQs beyond the two revocation threads wait here.
  Ring<InlineFn> revoke_queue_;
  uint32_t revoke_threads_busy_ = 0;

  // Kernel-to-kernel egress (see Emit).
  struct EgressMsg {
    Cycles ready = 0;
    InlineFn send;
  };
  Ring<EgressMsg> egress_;
  bool egress_scheduled_ = false;

  // Kernel -> service ask flow control.
  struct AskWindow {
    uint32_t inflight = 0;
    Ring<InlineFn> queue;
  };
  std::map<NodeId, AskWindow> ask_windows_;

  uint32_t hello_replies_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_CORE_KERNEL_H_
