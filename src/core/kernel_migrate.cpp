// PE migration: the three-phase handoff, and the stale-epoch forwarding
// and relaying of IKC requests during its settle round. The Kernel class
// overview is in kernel.h.
#include "core/kernel.h"

#include <algorithm>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"

namespace semperos {

// ---------------------------------------------------------------------------
// PE migration — dynamic PE-group membership (beyond the paper)
//
// The handoff has three phases (see MigrateTask in kernel.h). Correctness
// across the handoff leans on two existing invariants: the Pointless/mark
// machinery (frozen VPEs deny exchanges with a retryable error, in-flight
// revocations are drained before packing) and pairwise-FIFO kernel channels
// (a REVOKE_REQ re-routed at the destination can never overtake the
// MIGRATE_VPE snapshot, and once a peer acknowledged EPOCH_UPDATE no stale
// request from it can still be in flight).
// ---------------------------------------------------------------------------

KernelId Kernel::MigratingTo(NodeId pe) const {
  for (const auto& [id, task] : migrate_tasks_) {
    if (task->pe == pe && task->phase == MigrateTask::Phase::kTransfer) {
      return task->dst;
    }
  }
  return kInvalidKernel;
}

NodeId Kernel::RoutingPartition(const IkcMsg& req) {
  switch (req.op) {
    case IkcOp::kObtainReq:
      return req.cap.IsNull() ? req.peer : req.cap.pe();
    case IkcOp::kOpenSessionReq:
      return req.cap.pe();
    case IkcOp::kDelegateReq:
      return req.peer;
    case IkcOp::kDelegateAck:
      return req.child.pe();
    case IkcOp::kRevokeReq:
      return req.cap.pe();
    case IkcOp::kOrphanNotify:
    case IkcOp::kChildDrop:
      return req.parent.pe();
    default:
      // Not capability-targeted (hello, shutdown, announce, migration
      // control traffic).
      return kInvalidNode;
  }
}

bool Kernel::MaybeForwardIkc(EpId ep, const Message& msg, const IkcMsg& req) {
  NodeId part = RoutingPartition(req);
  // Requests for a partition whose snapshot is in flight park at the source
  // and re-dispatch once the destination confirmed the takeover.
  for (auto& [id, task] : migrate_tasks_) {
    (void)id;
    if (task->phase == MigrateTask::Phase::kTransfer && part == task->pe) {
      task->parked.push_back(MigrateTask::ParkedIkc{ep, msg, req});
      return true;
    }
  }
  if (part == kInvalidNode) {
    return false;
  }
  KernelId owner = config_.membership.KernelOf(part);
  if (owner == config_.id) {
    return false;
  }
  // The sender's membership view is one epoch behind: the request must
  // reach the partition's current owner, so stale lookups stay correct for
  // the settle round.
  stats_.ikc_forwarded++;
  if (!config_.cap_batching) {
    // Legacy proxy: forward with a fresh token and relay the reply back
    // hop by hop.
    auto fwd = NewMsg<IkcMsg>(req);
    fwd->token = 0;  // fresh token for the forward leg
    uint64_t orig_token = req.token;
    Charge(t_.ddl_decode + t_.ikc_send);
    SendIkc(owner, fwd, [this, ep, msg, orig_token](const IkcReply& r) {
      auto reply = NewMsg<IkcReply>(r);
      reply->token = orig_token;
      EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
    });
    return true;
  }
  // Pipelined ancestry walk (--cap-batching): relay the request onward with
  // the origin's token and reply address intact — the final owner answers
  // the origin directly, cutting one NoC round trip per stale hop. A
  // fire-and-forget kRelayNotice tells the origin where its request went,
  // so fault tolerance still covers the re-keyed hop.
  if (peer_failed_.at(owner) != 0) {
    // The current owner is quorum-confirmed dead: short-circuit with the
    // same kUnreachable a recovery abort at the origin would produce.
    // `msg` is relay-rewritten for multi-hop walks, so this reaches the
    // origin, not the previous hop.
    auto reply = NewMsg<IkcReply>();
    reply->token = req.token;
    reply->err = ErrCode::kUnreachable;
    EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
    return true;
  }
  stats_.ikc_relays_pipelined++;
  auto fwd = NewMsg<IkcMsg>(req);
  if (fwd->relay_node == kInvalidNode) {
    // First hop: record the origin's reply address once; later hops keep it.
    fwd->relay_node = msg.src_node;
    fwd->relay_ep = msg.reply_ep;
  }
  fwd->relay_hops++;
  auto notice = NewMsg<IkcMsg>();
  notice->op = IkcOp::kRelayNotice;
  notice->node = part;
  notice->new_owner = owner;
  notice->epoch = config_.membership.PeEpoch(part);
  notice->relay_token = req.token;
  notice->relay_hops = fwd->relay_hops;
  bool self_notice = req.src_kernel == config_.id;
  Cycles cost = DdlDecodeCostVpe(part) + IkcSendCost(owner, req.op);
  if (!self_notice && peer_failed_.at(req.src_kernel) == 0) {
    cost += IkcSendCost(req.src_kernel, IkcOp::kRelayNotice);
  }
  Charge(cost);
  SendIkcRelay(owner, fwd);
  if (self_notice) {
    // The walk looped back through its own origin (this kernel's view of
    // the partition is newer than the forwarder's): a kernel cannot IKC
    // itself, so apply the notice directly.
    ApplyRelayNotice(*notice);
  } else if (peer_failed_.at(req.src_kernel) == 0) {
    SendIkc(req.src_kernel, notice, [](const IkcReply&) {});
  }
  return true;
}

void Kernel::ApplyRelayNotice(const IkcMsg& notice) {
  // Learned-owner hint ahead of the settle broadcast; epoch-gated (ddl.h
  // Apply), so a stale notice can never roll the membership back.
  ApplyMembershipUpdate(notice.node, notice.new_owner, notice.epoch);
  auto it = ikcs_.find(notice.relay_token);
  if (it == ikcs_.end()) {
    return;  // the direct reply already arrived, or recovery aborted it
  }
  PendingIkc& pending = it->second;
  if (notice.relay_hops <= pending.relay_hops) {
    // Notices from different forwarders are not FIFO relative to each
    // other; hop counts order them — a late notice from an earlier hop
    // must not re-key the pending away from the newest known location.
    return;
  }
  pending.relay_hops = notice.relay_hops;
  pending.peer = notice.new_owner;
  if (peer_failed_.at(notice.new_owner) != 0) {
    // Re-keyed onto a kernel that already failed here: the relayed request
    // died with it. Complete the call exactly like a recovery abort; if
    // the request was in fact dispatched before the crash, the direct
    // reply is tolerated as a late reply (see OnIkc).
    auto cb = std::move(pending.cb);
    uint64_t token = notice.relay_token;
    ikcs_.erase(it);
    stats_.ft_ikcs_aborted++;
    IkcReply reply;
    reply.token = token;
    reply.err = ErrCode::kUnreachable;
    if (cb) {
      cb(reply);
    }
  }
}

bool Kernel::MigrationBlocked(NodeId pe) const {
  for (const auto& [token, op] : obtains_) {
    (void)token;
    if (op.sc.vpe == pe) {
      return true;
    }
  }
  for (const auto& [token, op] : delegates_) {
    (void)token;
    if (op.sc.vpe == pe) {
      return true;
    }
  }
  for (const auto& [raw, parked] : parked_delegates_) {
    if (parked.receiver == pe || DdlKey(raw).pe() == pe) {
      return true;
    }
  }
  for (const auto& [token, ask] : asks_) {
    (void)token;
    if (ask.node == pe) {
      return true;  // an exchange-ask to the PE is outstanding
    }
  }
  if (!revoke_queue_.empty()) {
    return true;  // queued revocations could still touch the partition
  }
  const VpeState& vpe = vpes_.At(pe);
  // An in-flight revocation holding part of the subtree blocks the handoff.
  return vpe.table.Any([&](CapSel, DdlKey key) {
    const Capability* cap = caps_.Find(key);
    return cap != nullptr && cap->marked();
  });
}

void Kernel::AdminMigratePe(NodeId pe, KernelId dst, UniqueFn<void(ErrCode)> done) {
  VpeState* v = vpes_.Find(pe);
  CHECK(v != nullptr) << "kernel " << config_.id << " does not manage PE " << pe;
  if (shutting_down_ || !v->alive) {
    if (done) {
      done(ErrCode::kAborted);
    }
    return;
  }
  if (v->migrating || dst == config_.id || dst >= config_.kernel_nodes.size() ||
      peer_down_.at(dst) || peer_failed_.at(dst) != 0) {
    if (done) {
      done(ErrCode::kInvalidArgs);
    }
    return;
  }

  v->migrating = true;
  auto task = std::make_unique<MigrateTask>();
  task->id = next_token_++;
  task->pe = pe;
  task->dst = dst;
  task->done = std::move(done);
  if (obs::Tracer* tr = tracer(); tr != nullptr) {
    // Migrations are platform-initiated: they root their own trace.
    task->trace = tr->NewTraceId(pe_->node());
    task->trace_span = tr->NextSpanId(pe_->node());
    task->trace_start = pe_->sim()->Now();
  }
  uint64_t id = task->id;
  migrate_tasks_[id] = std::move(task);
  // Freeze bookkeeping, then poll until the moving partition quiesced.
  Charge(t_.migrate_freeze);
  pe_->sim()->Schedule(t_.migrate_quiesce_poll, [this, id] { PollMigrateQuiesce(id); });
}

void Kernel::PollMigrateQuiesce(uint64_t task_id) {
  auto it = migrate_tasks_.find(task_id);
  CHECK(it != migrate_tasks_.end());
  MigrateTask* task = it->second.get();
  if (MigrationBlocked(task->pe)) {
    task->quiesce_polls++;
    CHECK_LT(task->quiesce_polls, 1'000'000u) << "migration quiesce never drained";
    pe_->sim()->Schedule(t_.migrate_quiesce_poll,
                         [this, task_id] { PollMigrateQuiesce(task_id); });
    return;
  }
  StartMigrateTransfer(task_id);
}

void Kernel::StartMigrateTransfer(uint64_t task_id) {
  auto it = migrate_tasks_.find(task_id);
  CHECK(it != migrate_tasks_.end());
  MigrateTask* task = it->second.get();
  task->phase = MigrateTask::Phase::kTransfer;
  // The transfer IKC (and, via the pending restore, the settle round's
  // EPOCH_UPDATEs) nest under the migration span.
  cur_trace_ = TraceCtx{task->trace, task->trace_span};

  VpeState& vpe = vpes_.At(task->pe);
  auto payload = std::make_shared<MigratePayload>();
  payload->vpe = vpe.id;
  payload->node = vpe.node;
  payload->alive = vpe.alive;
  payload->is_service = vpe.is_service;
  payload->next_sel = vpe.next_sel;
  payload->next_obj = next_obj_;
  payload->caps.reserve(vpe.table.size());
  vpe.table.ForEach([&](CapSel sel, DdlKey key) {
    Capability* cap = caps_.Find(key);
    CHECK(cap != nullptr);
    CHECK(!cap->marked()) << "quiesce left a marked capability in the partition";
    MigratedCap record;
    record.key = key;
    record.type = cap->type();
    record.sel = sel;
    record.parent = cap->parent();
    record.children.assign(cap->children().begin(), cap->children().end());
    record.payload = cap->payload();
    record.activated = cap->activated();
    record.activated_ep = cap->activated_ep();
    payload->caps.push_back(std::move(record));
  });
  stats_.caps_migrated += payload->caps.size();
  // Mint the handoff's epoch now, apply it in FinishMigrateTransfer once
  // the destination confirmed (a refused transfer must not bump anything).
  // Strictly greater than this partition's last applied epoch, so per-PE
  // gating at every peer makes the newest owner win (see ddl.h Apply).
  task->epoch = config_.membership.Epoch() + 1;

  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kMigrateVpe;
  msg->node = task->pe;
  msg->new_owner = task->dst;
  msg->epoch = task->epoch;
  msg->migrate = payload;
  Charge(static_cast<Cycles>(payload->caps.size()) * t_.migrate_pack_per_cap + t_.ikc_send);
  SendIkc(task->dst, msg,
          [this, task_id](const IkcReply& reply) { FinishMigrateTransfer(task_id, reply); });
  cur_trace_ = TraceCtx{};
}

void Kernel::OnMigrateVpe(EpId ep, const Message& msg, const IkcMsg& req) {
  CHECK(req.migrate != nullptr);
  CHECK_EQ(req.new_owner, config_.id);
  const MigratePayload& mp = *req.migrate;
  auto reply = NewMsg<IkcReply>();
  reply->token = req.token;
  if (shutting_down_ || vpes_.size() >= kMaxVpesPerKernel) {
    reply->err = shutting_down_ ? ErrCode::kAborted : ErrCode::kInvalidArgs;
    EmitIkcReply(Charge(t_.ikc_dispatch + t_.ikc_send), ep, msg, std::move(reply));
    return;
  }

  VpeState vpe;
  vpe.id = mp.vpe;
  vpe.node = mp.node;
  vpe.alive = mp.alive;
  vpe.is_service = mp.is_service;
  vpe.migrating = false;
  vpe.next_sel = mp.next_sel;
  VpeState* v = vpes_.Insert(std::move(vpe));
  CHECK(v != nullptr) << "kernel " << config_.id << " already manages PE " << mp.vpe;
  // The PE may have been migrated away from here earlier and is now coming
  // back; it is no longer "away", and a later death must report kNoSuchVpe
  // instead of the retryable kVpeMigrating.
  migrated_away_.erase(mp.vpe);
  for (const MigratedCap& record : mp.caps) {
    Capability* cap = caps_.Create(record.key, record.type, mp.vpe, record.sel);
    cap->payload() = record.payload;
    cap->set_parent(record.parent);
    for (DdlKey child : record.children) {
      cap->AddChild(child);
    }
    if (record.activated) {
      cap->SetActivated(record.activated_ep);
    }
    v->table.Set(record.sel, record.key);
  }
  // Keep allocating collision-free object ids in the moved partition.
  next_obj_ = std::max(next_obj_, mp.next_obj);
  stats_.caps_migrated += mp.caps.size();
  // This kernel owns the partition from here on; the source and the other
  // kernels converge on the same epoch through the settle broadcast.
  ApplyMembershipUpdate(mp.node, config_.id, req.epoch);

  Charge(t_.ikc_dispatch + static_cast<Cycles>(mp.caps.size()) * t_.migrate_install_per_cap +
             t_.epoch_apply + t_.ep_config);
  // Retarget the PE's syscall send endpoint at this kernel, then confirm
  // the takeover — the moved VPE's retried syscalls land here from now on.
  EpId syscall_ep = kEpSyscall0 + (mp.vpe % kNumSyscallEps);
  pe_->dtu().ConfigureRemoteSend(mp.node, user_ep::kSyscallSend, pe_->node(), syscall_ep,
                                 /*credits=*/1, /*label=*/0, [this, ep, msg, reply] {
                                   EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
                                 });
}

void Kernel::FinishMigrateTransfer(uint64_t task_id, const IkcReply& reply) {
  auto it = migrate_tasks_.find(task_id);
  CHECK(it != migrate_tasks_.end());
  MigrateTask* task = it->second.get();
  if (reply.err != ErrCode::kOk) {
    // The destination refused; unfreeze and report. Nothing moved, so the
    // deferred unlinks now apply to the retained local copies.
    vpes_.At(task->pe).migrating = false;
    task->phase = MigrateTask::Phase::kQuiesce;
    std::vector<InlineFn> unlinks = std::move(task->deferred_unlinks);
    task->deferred_unlinks.clear();
    for (auto& fn : unlinks) {
      fn();
    }
    for (MigrateTask::ParkedIkc& p : task->parked) {
      DispatchIkcRequest(p.ep, p.msg, p.req);
    }
    task->parked.clear();
    CompleteMigration(task_id, reply.err);
    return;
  }

  // The destination owns the partition now: drop the local copy. The
  // records moved; the capability tree itself did not change, so no
  // parent/child unlinking happens here.
  VpeState& vpe = vpes_.At(task->pe);
  vpe.table.ForEach([this](CapSel, DdlKey key) { caps_.Erase(key); });
  vpes_.Erase(task->pe);
  migrated_away_[task->pe] = task->dst;
  ApplyMembershipUpdate(task->pe, task->dst, task->epoch);
  Charge(t_.ikc_reply_handle + t_.epoch_apply);

  // Leave kTransfer before releasing the parked requests — MaybeForwardIkc
  // parks for in-transfer partitions, and these must forward now instead.
  task->phase = MigrateTask::Phase::kSettle;

  // Unlinks deferred during the transfer re-route to the new owner (the
  // membership update above makes KernelOf resolve to the destination).
  std::vector<InlineFn> unlinks = std::move(task->deferred_unlinks);
  task->deferred_unlinks.clear();
  for (auto& fn : unlinks) {
    fn();
  }

  // Release requests parked during the transfer; the updated membership
  // forwards them to the new owner.
  std::vector<MigrateTask::ParkedIkc> parked = std::move(task->parked);
  task->parked.clear();
  for (MigrateTask::ParkedIkc& p : parked) {
    if (!MaybeForwardIkc(p.ep, p.msg, p.req)) {
      DispatchIkcRequest(p.ep, p.msg, p.req);
    }
  }

  // Settle round: broadcast the epoch so every kernel re-routes directly.
  for (KernelId peer = 0; peer < config_.kernel_nodes.size(); ++peer) {
    if (peer == config_.id || peer_down_.at(peer)) {
      continue;
    }
    task->outstanding++;
    auto update = NewMsg<IkcMsg>();
    update->op = IkcOp::kEpochUpdate;
    update->node = task->pe;
    update->new_owner = task->dst;
    update->epoch = task->epoch;
    Charge(t_.ikc_send);
    SendIkc(peer, update, [this, task_id](const IkcReply&) {
      auto tit = migrate_tasks_.find(task_id);
      CHECK(tit != migrate_tasks_.end());
      MigrateTask* t = tit->second.get();
      CHECK_GT(t->outstanding, 0u);
      if (--t->outstanding == 0) {
        CompleteMigration(task_id, ErrCode::kOk);
      }
    });
  }
  if (task->outstanding == 0) {
    CompleteMigration(task_id, ErrCode::kOk);
  }
}

void Kernel::CompleteMigration(uint64_t task_id, ErrCode err) {
  auto it = migrate_tasks_.find(task_id);
  CHECK(it != migrate_tasks_.end());
  MigrateTask* task = it->second.get();
  if (err == ErrCode::kOk) {
    stats_.migrations++;
    LOG_INFO(kTag) << "kernel " << config_.id << " migrated PE " << task->pe << " to kernel "
                   << task->dst << " (epoch " << task->epoch << ")";
  }
  if (task->trace != 0) {
    RecordSpan(tracer(), task->trace, task->trace_span, /*parent=*/0, task->trace_start,
               pe_->sim()->Now(), pe_->node(), obs::SpanKind::kMigration,
               static_cast<uint16_t>(task->pe));
  }
  auto done = std::move(task->done);
  migrate_tasks_.erase(it);
  if (done) {
    done(err);
  }
}

void Kernel::ApplyMembershipUpdate(NodeId pe, KernelId new_owner, uint64_t epoch) {
  config_.membership.Apply(pe, new_owner, epoch);
  // Ownership changed (or at least may have): drop the remote-DDL cache.
  // The epoch guard inside the cache covers table-wide bumps; this covers
  // learned-owner hints applied without one visible here.
  ddl_cache_.Invalidate();
  // Sessions already connected to a service on the moved PE keep working
  // (the PE itself did not move); new OPEN_SESSION requests must route to
  // the kernel that now manages it.
  for (auto& [name, entries] : services_) {
    (void)name;
    for (ServiceEntry& entry : entries) {
      if (entry.node == pe) {
        entry.kernel = new_owner;
      }
    }
  }
}

}  // namespace semperos
