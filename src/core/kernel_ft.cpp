// Fault tolerance (src/ft): crash injection, heartbeat detection, the
// quorum verdict and survivor-side recovery. The Kernel class overview is
// in kernel.h.
#include "core/kernel.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"

namespace semperos {

// ---------------------------------------------------------------------------
// Fault tolerance (src/ft) — injection, heartbeat detection, quorum verdict,
// and distributed capability-tree recovery
// ---------------------------------------------------------------------------

void Kernel::AdminKill() {
  CHECK(!dead_) << "kernel " << config_.id << " killed twice";
  dead_ = true;
  pe_->dtu().Kill();
  LOG_INFO(kTag) << "kernel " << config_.id << " KILLED (fault injection)";
}

void Kernel::AdminStartFailureDetector(const FtConfig& ft) {
  CHECK(!dead_);
  CHECK_GE(ft.heartbeat_timeout, ft.heartbeat_period);
  // A monitor window that ends before the second tick can never time a
  // peer out — catch the forgotten-monitor_until misuse loudly instead of
  // silently never detecting anything.
  CHECK_GT(ft.monitor_until, pe_->sim()->Now() + ft.heartbeat_period)
      << "failure detector armed with an already-expired monitor window";
  ft_ = ft;
  ft_.enabled = true;
  Cycles now = pe_->sim()->Now();
  for (KernelId p = 0; p < hb_last_seen_.size(); ++p) {
    hb_last_seen_[p] = now;
  }
  pe_->sim()->Schedule(ft_.heartbeat_period, [this] { HeartbeatTick(); });
}

FtVerdict Kernel::ft_verdict(KernelId peer) const {
  if (peer_failed_.at(peer) != 0) {
    return FtVerdict::kFailed;
  }
  if (ft_refused_.at(peer) != 0) {
    return FtVerdict::kNoQuorum;
  }
  if (ft_suspected_.at(peer) != 0) {
    return FtVerdict::kSuspected;
  }
  return FtVerdict::kAlive;
}

void Kernel::OnHeartbeat(EpId ep, const Message& msg) {
  const HeartbeatMsg* hb = msg.As<HeartbeatMsg>();
  CHECK(hb != nullptr) << "non-heartbeat message on heartbeat EP";
  if (!msg.is_reply) {
    // Ping: free the slot and answer immediately. The reply needs no slot
    // (deferred-reply path) and no IKC credit, so even a kernel whose flow
    // window towards us is exhausted still proves its liveness.
    pe_->dtu().Ack(ep, msg);
    Charge(t_.hb_process);
    auto ack = NewMsg<HeartbeatMsg>();
    ack->from = config_.id;
    ack->ack = true;
    pe_->dtu().SendDeferredReply(msg, ack);
    return;
  }
  stats_.hb_acked++;
  hb_last_seen_.at(hb->from) = pe_->sim()->Now();
}

void Kernel::HeartbeatTick() {
  if (dead_ || shutting_down_ || !ft_.enabled) {
    return;  // a crashed kernel's detector dies with it
  }
  Cycles now = pe_->sim()->Now();
  for (KernelId p = 0; p < config_.kernel_nodes.size(); ++p) {
    if (p == config_.id || peer_failed_[p] != 0 || peer_down_.at(p)) {
      continue;
    }
    if (ft_suspected_[p] == 0 && now - hb_last_seen_[p] > ft_.heartbeat_timeout) {
      RaiseSuspicion(p);
    }
    if (ft_suspected_[p] != 0) {
      continue;  // no point pinging a peer we already consider silent
    }
    stats_.hb_sent++;
    Charge(t_.hb_process);
    auto ping = NewMsg<HeartbeatMsg>();
    ping->from = config_.id;
    pe_->dtu().SendTo(config_.kernel_nodes.at(p), kEpHeartbeat, ping, kEpHeartbeat);
  }
  SendSuspectVotes();
  if (now + ft_.heartbeat_period <= ft_.monitor_until) {
    pe_->sim()->Schedule(ft_.heartbeat_period, [this] { HeartbeatTick(); });
  }
}

void Kernel::RaiseSuspicion(KernelId peer) {
  if (ft_suspected_.at(peer) != 0) {
    return;
  }
  ft_suspected_[peer] = 1;
  stats_.ft_suspicions++;
  Charge(t_.ft_suspect);
  LOG_INFO(kTag) << "kernel " << config_.id << " suspects kernel " << peer << " (silent for > "
                 << ft_.heartbeat_timeout << " cycles)";
}

KernelId Kernel::FtLeader() const {
  for (KernelId k = 0; k < config_.kernel_nodes.size(); ++k) {
    if (ft_suspected_[k] == 0 && peer_failed_[k] == 0 && !peer_down_.at(k)) {
      return k;
    }
  }
  return config_.id;  // everyone else is unreachable; we answer to ourselves
}

void Kernel::SendSuspectVotes() {
  // Votes are re-sent every tick until a verdict (or refusal) lands: the
  // leader's identity can shift while suspicion spreads, and the tally side
  // deduplicates by voter bit, so repetition is cheap and loss-tolerant.
  for (KernelId d = 0; d < config_.kernel_nodes.size(); ++d) {
    if (ft_suspected_[d] == 0 || peer_failed_[d] != 0 || ft_refused_[d] != 0) {
      continue;
    }
    KernelId leader = FtLeader();
    if (leader == config_.id) {
      RecordSuspectVote(d, config_.id);
      continue;
    }
    Charge(t_.ikc_send);
    auto vote = NewMsg<IkcMsg>();
    vote->op = IkcOp::kSuspectKernel;
    vote->suspect = d;
    SendIkc(leader, vote, [](const IkcReply&) {});
  }
}

void Kernel::RecordSuspectVote(KernelId dead, KernelId voter) {
  if (dead >= peer_failed_.size() || peer_failed_[dead] != 0) {
    return;  // verdict already applied
  }
  uint64_t bit = 1ull << voter;
  if ((ft_vote_bits_[dead] & bit) == 0) {
    ft_vote_bits_[dead] |= bit;
    stats_.ft_votes++;
  }
  uint32_t total = static_cast<uint32_t>(config_.kernel_nodes.size());
  uint32_t quorum = total / 2 + 1;
  uint32_t votes = static_cast<uint32_t>(std::popcount(ft_vote_bits_[dead]));
  if (votes >= quorum) {
    StartFailover(dead);
    return;
  }
  // Refusal check: once every configured kernel has either voted or is
  // itself unreachable from here, no majority can ever be assembled —
  // a surviving minority must not guess (split-brain). Record the refusal
  // instead of recovering.
  uint64_t covered = ft_vote_bits_[dead];
  for (KernelId k = 0; k < total; ++k) {
    if (k == dead || ft_suspected_[k] != 0 || peer_failed_[k] != 0 || peer_down_.at(k)) {
      covered |= 1ull << k;
    }
  }
  uint64_t all = total >= 64 ? ~0ull : (1ull << total) - 1;
  if (covered == all && ft_refused_[dead] == 0) {
    ft_refused_[dead] = 1;
    stats_.ft_refusals++;
    LOG_WARN(kTag) << "kernel " << config_.id << " refuses recovery of kernel " << dead << ": "
                   << votes << " votes < quorum " << quorum << " of " << total << " kernels";
  }
}

void Kernel::StartFailover(KernelId dead) {
  if (peer_failed_.at(dead) != 0) {
    return;
  }
  // One new epoch covers every reassigned partition of the takeover plan;
  // per-PE epoch gating at the followers keeps late stale broadcasts from
  // rolling any of them back (see ddl.h).
  uint64_t epoch = config_.membership.Epoch() + 1;
  LOG_INFO(kTag) << "kernel " << config_.id << " declares kernel " << dead
                 << " FAILED (quorum reached), recovery epoch " << epoch;
  // Snapshot the plan this decree stands for before recovery rewrites the
  // membership (afterwards no partition maps to `dead` any more).
  std::vector<TakeoverAssignment> plan = PlanTakeover(
      config_.membership, dead, static_cast<uint32_t>(config_.kernel_nodes.size()), peer_failed_);
  RecoverFromFailure(dead, epoch);
  for (KernelId p = 0; p < config_.kernel_nodes.size(); ++p) {
    if (p == config_.id || peer_failed_[p] != 0 || peer_down_.at(p)) {
      continue;
    }
    Charge(t_.ikc_send);
    auto decree = NewMsg<IkcMsg>();
    decree->op = IkcOp::kFailoverDecree;
    decree->suspect = dead;
    decree->epoch = epoch;
    SendIkc(p, decree, [](const IkcReply&) {});
  }
  if (config_.on_failover) {
    config_.on_failover(dead, epoch, plan);
  }
}

void Kernel::RecoverFromFailure(KernelId dead, uint64_t epoch) {
  if (dead >= peer_failed_.size() || peer_failed_[dead] != 0) {
    return;  // idempotent: decree may race a local quorum decision
  }
  peer_failed_[dead] = 1;
  ft_suspected_[dead] = 1;
  peer_down_.at(dead) = true;
  stats_.ft_failovers++;
  ft_verdict_at_ = pe_->sim()->Now();
  TraceCtx saved_trace = cur_trace_;
  if (obs::Tracer* tr = tracer(); tr != nullptr) {
    if (ft_trace_ == 0) {
      // Recovery roots its own trace; spans until the pending counter
      // drains back to zero (FtRecoveryStepDone records it).
      ft_trace_ = tr->NewTraceId(pe_->node());
      ft_span_ = tr->NextSpanId(pe_->node());
      ft_trace_start_ = pe_->sim()->Now();
    }
    cur_trace_ = TraceCtx{ft_trace_, ft_span_};
  }
  // The takeover below reassigns every partition of the dead range; the
  // remote-DDL cache must not serve hits across that (the Apply calls here
  // bypass ApplyMembershipUpdate's invalidation).
  ddl_cache_.Invalidate();

  // The dead group's services are unreachable; stop routing sessions there.
  for (auto& [name, entries] : services_) {
    (void)name;
    std::erase_if(entries, [&](const ServiceEntry& e) { return e.kernel == dead; });
  }

  // 1. DDL range takeover: every survivor computes the identical plan from
  // its replicated membership table, so no negotiation is needed — the
  // quorum leader only minted the epoch.
  std::vector<TakeoverAssignment> plan = PlanTakeover(
      config_.membership, dead, static_cast<uint32_t>(config_.kernel_nodes.size()), peer_failed_);
  std::vector<uint8_t> dead_part(config_.membership.PeCount(), 0);
  Cycles cost = t_.ft_decree;
  for (const TakeoverAssignment& a : plan) {
    dead_part.at(a.pe) = 1;
    config_.membership.Apply(a.pe, a.new_owner, epoch);
    cost += t_.epoch_apply;
    if (a.new_owner == config_.id) {
      cost += t_.ft_takeover_per_pe;
      AdoptPe(a.pe);
    }
  }

  // 2. Reconstruct the capability tree from the surviving halves: this
  // kernel knows exactly which of its capabilities were obtained from or
  // delegated to the dead kernel — edges into the dead range. Child edges
  // are pruned (the children's records died with their kernel); a local
  // capability whose parent lived in the dead range roots an orphaned
  // subtree and is collected for revocation. Key-sorted order keeps the
  // recovery bit-identical across reruns and standard libraries.
  std::vector<Capability*> pruned;
  std::vector<DdlKey> orphan_roots;
  caps_.ForEach([&](Capability* cap) {
    cost += t_.ft_scan_per_cap;
    for (DdlKey child : cap->children()) {
      if (child.pe() < dead_part.size() && dead_part[child.pe()] != 0) {
        pruned.push_back(cap);
        break;
      }
    }
    DdlKey parent = cap->parent();
    if (!parent.IsNull() && parent.pe() < dead_part.size() && dead_part[parent.pe()] != 0) {
      orphan_roots.push_back(cap->key());
    }
  });
  std::sort(pruned.begin(), pruned.end(),
            [](const Capability* x, const Capability* y) { return x->key().raw() < y->key().raw(); });
  for (Capability* cap : pruned) {
    std::vector<DdlKey> dead_children;
    for (DdlKey child : cap->children()) {
      if (child.pe() < dead_part.size() && dead_part[child.pe()] != 0) {
        dead_children.push_back(child);
      }
    }
    for (DdlKey child : dead_children) {
      cap->RemoveChild(child);
      stats_.ft_edges_pruned++;
      cost += t_.ft_prune_per_edge;
    }
  }
  Charge(cost);

  // 3. Unwedge every in-flight call addressed to the dead kernel. For
  // REVOKE_REQs this is semantically exact: the dead kernel's share of the
  // subtree is gone with its kernel, so the revocation may complete.
  // Requests parked behind a migration transfer towards the dead kernel
  // unwind through the existing refused-transfer path.
  AbortPendingIkcsTo(dead);

  // A parked delegate's ACK comes from the kernel owning the parent
  // capability (the delegator's side of the handshake). If that partition
  // died, the ACK can never arrive: drop the parked record. The child was
  // never materialized, and the parent's record died with its kernel.
  for (auto it = parked_delegates_.begin(); it != parked_delegates_.end();) {
    NodeId ppe = it->second.parent_key.pe();
    if (ppe < dead_part.size() && dead_part[ppe] != 0) {
      stats_.ft_ikcs_aborted++;
      it = parked_delegates_.erase(it);
    } else {
      ++it;
    }
  }

  // 4. Recursively revoke the orphaned subtrees (deny-by-default: a
  // capability whose ancestry can no longer vouch for it must go). Remote
  // children at other survivors unwind through the normal REVOKE_REQ path;
  // activated DTU endpoints are invalidated by the sweep.
  if (ft_.bug_skip_orphan_revoke) {
    // Injected protocol bug (FtConfig::bug_skip_orphan_revoke): leave the
    // orphaned subtrees dangling so the auditor has something to catch.
    ft_pending_recovery_ += 1;
    FtRecoveryStepDone();
    cur_trace_ = saved_trace;
    return;
  }
  ft_pending_recovery_ += static_cast<uint32_t>(orphan_roots.size()) + 1;
  std::sort(orphan_roots.begin(), orphan_roots.end(),
            [](DdlKey x, DdlKey y) { return x.raw() < y.raw(); });
  for (DdlKey root : orphan_roots) {
    Capability* cap = caps_.Find(root);
    if (cap == nullptr) {
      FtRecoveryStepDone();
      continue;
    }
    if (cap->marked()) {
      // An in-flight revocation already covers this subtree; recovery is
      // complete once it finished.
      cap->task()->on_complete.push_back([this] { FtRecoveryStepDone(); });
      continue;
    }
    stats_.ft_orphan_roots++;
    RevokeTask* task = NewRevokeTask(root);
    task->admin = true;
    task->admin_done = [this] { FtRecoveryStepDone(); };
    Cycles rcost = t_.revoke_entry + MarkPass(cap, task);
    rcost += FlushRevokeRequests(task);
    Charge(rcost);
    CheckRevokeComplete(task);
  }
  FtRecoveryStepDone();  // sentinel: recovery with zero orphans is done now
  cur_trace_ = saved_trace;
}

void Kernel::FtRecoveryStepDone() {
  CHECK_GT(ft_pending_recovery_, 0u);
  if (--ft_pending_recovery_ == 0) {
    ft_recovered_at_ = pe_->sim()->Now();
    if (ft_trace_ != 0) {
      RecordSpan(tracer(), ft_trace_, ft_span_, /*parent=*/0, ft_trace_start_,
                 pe_->sim()->Now(), pe_->node(), obs::SpanKind::kFailover, /*op=*/0);
      ft_trace_ = 0;
      ft_span_ = 0;
    }
    LOG_INFO(kTag) << "kernel " << config_.id << " recovery complete";
  }
}

void Kernel::AdoptPe(NodeId pe) {
  PeType type = pe < config_.pe_types.size() ? config_.pe_types[pe] : PeType::kUser;
  if (type == PeType::kKernel || type == PeType::kMemory) {
    return;  // ownership-only takeover: nothing runs a VPE on those tiles
  }
  if (vpes_.Find(pe) != nullptr) {
    return;  // already ours (PE had migrated here before its kernel died)
  }
  stats_.ft_pes_adopted++;
  CHECK_LT(vpes_.size(), kMaxVpesPerKernel)
      << "kernel " << config_.id << " exceeds 192 VPEs adopting PE " << pe;
  // The VPE's kernel-side state died with its kernel; only a fresh identity
  // can be rebuilt. The program on the PE itself kept running — its old
  // capabilities are unrecoverable (orphan revocation at the survivors
  // removes every remaining trace), so it restarts from an empty table
  // plus the standard self capability. New keys minted here cannot clash
  // with stale edges into this partition: every survivor prunes those
  // edges when it applies the decree, before any exchange from the adopted
  // VPE can reach it.
  VpeState vpe_state;
  vpe_state.id = pe;
  vpe_state.node = pe;
  vpe_state.alive = true;
  vpe_state.is_service = type == PeType::kService;
  VpeState* v = vpes_.Insert(std::move(vpe_state));
  CHECK(v != nullptr);
  migrated_away_.erase(pe);
  CapPayload payload;
  payload.type = CapType::kVpe;
  CreateCap(v, CapType::kVpe, payload, DdlKey());
  // Retarget the PE's syscall send endpoint at this kernel: the endpoint
  // reset also restores the send credit its last (lost) syscall consumed,
  // so the user runtime's retry can actually leave the PE.
  Charge(t_.ep_config);
  EpId syscall_ep = kEpSyscall0 + (pe % kNumSyscallEps);
  pe_->dtu().ConfigureRemoteSend(pe, user_ep::kSyscallSend, pe_->node(), syscall_ep,
                                 /*credits=*/1, /*label=*/0, nullptr);
}

void Kernel::AbortPendingIkcsTo(KernelId dead) {
  // Flow-queued and batch-buffered requests that never left: their tokens
  // are pending too, so dropping both stages first keeps the abort loop
  // the single completion point. (A relay buffered for the dead kernel has
  // no pending here; its origin aborts via its own re-keyed entry.)
  peers_.at(dead).queue.clear();
  peers_.at(dead).batch.clear();
  std::vector<uint64_t> tokens;
  for (const auto& [token, pending] : ikcs_) {
    if (pending.peer == dead) {
      tokens.push_back(token);
    }
  }
  std::sort(tokens.begin(), tokens.end());  // issue order: deterministic unwind
  for (uint64_t token : tokens) {
    auto it = ikcs_.find(token);
    if (it == ikcs_.end()) {
      continue;  // unwound by an earlier abort's callback
    }
    PendingIkc pending = std::move(it->second);
    ikcs_.erase(it);
    aborted_ikcs_.insert(token);
    stats_.ft_ikcs_aborted++;
    IkcReply reply;
    reply.token = token;
    reply.err = ErrCode::kUnreachable;
    TraceCtx saved_trace = cur_trace_;
    if (pending.trace_span != 0) {
      // The round trip ends here — aborted, but the span still closes so
      // the request's tree has no dangling parent link.
      RecordSpan(tracer(), pending.trace, pending.trace_span, pending.trace_parent,
                 pending.trace_start, pe_->sim()->Now(), pe_->node(), obs::SpanKind::kIkcRtt,
                 pending.trace_op);
      cur_trace_ = TraceCtx{pending.trace, pending.trace_parent};
    }
    if (pending.cb) {
      pending.cb(reply);
    }
    cur_trace_ = saved_trace;
  }
}

}  // namespace semperos
