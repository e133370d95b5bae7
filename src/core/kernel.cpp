#include "core/kernel.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"
#include "obs/trace.h"

namespace semperos {

void Kernel::RecordSpan(obs::Tracer* tr, uint64_t trace, uint64_t span, uint64_t parent,
                        Cycles start, Cycles end, uint32_t entity, obs::SpanKind kind,
                        uint16_t op) {
  obs::Span s;
  s.trace_id = trace;
  s.span_id = span;
  s.parent_id = parent;
  s.start = start;
  s.end = end;
  s.entity = entity;
  s.kind = kind;
  s.op = op;
  tr->Record(s);
}

const char* CapTypeName(CapType type) {
  switch (type) {
    case CapType::kNone:
      return "none";
    case CapType::kVpe:
      return "vpe";
    case CapType::kMem:
      return "mem";
    case CapType::kSendGate:
      return "sgate";
    case CapType::kRecvGate:
      return "rgate";
    case CapType::kService:
      return "service";
    case CapType::kSession:
      return "session";
    case CapType::kKernel:
      return "kernel";
  }
  return "?";
}

const char* SyscallOpName(SyscallOp op) {
  switch (op) {
    case SyscallOp::kNoop:
      return "noop";
    case SyscallOp::kOpenSession:
      return "open_session";
    case SyscallOp::kExchange:
      return "exchange";
    case SyscallOp::kObtain:
      return "obtain";
    case SyscallOp::kDelegate:
      return "delegate";
    case SyscallOp::kRevoke:
      return "revoke";
    case SyscallOp::kActivate:
      return "activate";
    case SyscallOp::kDeriveMem:
      return "derive_mem";
    case SyscallOp::kRegisterService:
      return "register_service";
  }
  return "?";
}

const char* IkcOpName(IkcOp op) {
  switch (op) {
    case IkcOp::kHello:
      return "hello";
    case IkcOp::kShutdown:
      return "shutdown";
    case IkcOp::kServiceAnnounce:
      return "service_announce";
    case IkcOp::kOpenSessionReq:
      return "open_session_req";
    case IkcOp::kObtainReq:
      return "obtain_req";
    case IkcOp::kDelegateReq:
      return "delegate_req";
    case IkcOp::kDelegateAck:
      return "delegate_ack";
    case IkcOp::kRevokeReq:
      return "revoke_req";
    case IkcOp::kOrphanNotify:
      return "orphan_notify";
    case IkcOp::kChildDrop:
      return "child_drop";
    case IkcOp::kMigrateVpe:
      return "migrate_vpe";
    case IkcOp::kEpochUpdate:
      return "epoch_update";
    case IkcOp::kSuspectKernel:
      return "suspect_kernel";
    case IkcOp::kFailoverDecree:
      return "failover_decree";
    case IkcOp::kCapBatch:
      return "cap_batch";
    case IkcOp::kRelayNotice:
      return "relay_notice";
  }
  return "?";
}

Kernel::Kernel(Config config) : config_(std::move(config)), t_(config_.timing) {
  CHECK_LE(config_.kernel_nodes.size(), size_t{kMaxKernels});
  peer_down_.assign(config_.kernel_nodes.size(), false);
  peers_.resize(config_.kernel_nodes.size());
  for (KernelId k = 0; k < config_.kernel_nodes.size(); ++k) {
    if (k != config_.id) {
      peers_[k].credits = config_.max_inflight;
    }
  }
  hb_last_seen_.assign(config_.kernel_nodes.size(), 0);
  ft_suspected_.assign(config_.kernel_nodes.size(), 0);
  peer_failed_.assign(config_.kernel_nodes.size(), 0);
  ft_refused_.assign(config_.kernel_nodes.size(), 0);
  ft_vote_bits_.assign(config_.kernel_nodes.size(), 0);
}

uint32_t Kernel::ThreadPoolSize() const {
  // Eq. 1: V_group + K_max * M_inflight.
  return static_cast<uint32_t>(vpes_.size()) +
         static_cast<uint32_t>(config_.kernel_nodes.size()) * config_.max_inflight;
}

void Kernel::AcquireThread() {
  stats_.threads_in_use++;
  stats_.threads_in_use_max = std::max(stats_.threads_in_use_max, stats_.threads_in_use);
  // Eq. 1 (V_group + K_max * M_inflight) is the paper's static sizing and
  // holds for every evaluated workload. With the in-flight window covering
  // send->dispatch (necessary for revocation liveness, see OnIkc), the
  // *provable* bound on concurrently held threads is one per local VPE plus
  // one per remote client VPE that can target this kernel; we guard against
  // leaks with that hard bound.
  CHECK_LE(stats_.threads_in_use, vpes_.size() + config_.membership.PeCount())
      << "kernel " << config_.id << " leaked operation threads";
}

void Kernel::ReleaseThread() {
  CHECK_GT(stats_.threads_in_use, 0u);
  stats_.threads_in_use--;
}

void Kernel::Emit(Cycles ready, InlineFn&& send) {
  egress_.push_back(EgressMsg{ready, std::move(send)});
  DrainEgress();
}

void Kernel::DrainEgress() {
  if (egress_scheduled_ || egress_.empty()) {
    return;
  }
  Cycles now = pe_->sim()->Now();
  Cycles when = egress_.front().ready > now ? egress_.front().ready : now;
  egress_scheduled_ = true;
  pe_->sim()->ScheduleAt(when, [this] {
    egress_scheduled_ = false;
    CHECK(!egress_.empty());
    EgressMsg msg = std::move(egress_.front());
    egress_.pop_front();
    msg.send();
    DrainEgress();
  });
}

// ---------------------------------------------------------------------------
// Boot
// ---------------------------------------------------------------------------

void Kernel::Start() {
  Dtu& dtu = pe_->dtu();
  dtu.ConfigureRecv(kEpAskReply, 64, [this](EpId, const Message& msg) { OnAskReply(msg); });
  dtu.ConfigureRecv(kEpHeartbeat, Dtu::kDefaultSlots,
                    [this](EpId ep, const Message& msg) { OnHeartbeat(ep, msg); });
  for (uint32_t i = 0; i < kNumSyscallEps; ++i) {
    dtu.ConfigureRecv(kEpSyscall0 + i, Dtu::kDefaultSlots,
                      [this](EpId ep, const Message& msg) { OnSyscall(ep, msg); });
  }
  for (uint32_t i = 0; i < kNumKernelEps; ++i) {
    dtu.ConfigureRecv(kEpKernel0 + i, Dtu::kDefaultSlots,
                      [this](EpId ep, const Message& msg) { OnIkc(ep, msg); });
  }
  BroadcastHello();
}

void Kernel::BroadcastHello() {
  if (PeerCount() == 0) {
    booted_ = true;
    return;
  }
  for (KernelId peer = 0; peer < config_.kernel_nodes.size(); ++peer) {
    if (peer == config_.id) {
      continue;
    }
    auto msg = NewMsg<IkcMsg>();
    msg->op = IkcOp::kHello;
    SendIkc(peer, msg, [this](const IkcReply&) {
      hello_replies_++;
      if (hello_replies_ == PeerCount()) {
        booted_ = true;
        LOG_INFO(kTag) << "kernel " << config_.id << " booted";
      }
    });
  }
}

void Kernel::FinishBoot(const std::vector<ProcessingElement*>& group_pes) {
  for (ProcessingElement* pe : group_pes) {
    if (pe->type() == PeType::kUser || pe->type() == PeType::kService ||
        pe->type() == PeType::kLoadGen) {
      pe->dtu().Downgrade();  // NoC-level isolation from here on
    }
  }
}

void Kernel::AdminCreateVpe(NodeId node, bool is_service) {
  CHECK_EQ(config_.membership.KernelOf(node), config_.id);
  CHECK_LT(vpes_.size(), kMaxVpesPerKernel)
      << "kernel " << config_.id << " exceeds 192 VPEs (6 syscall EPs x 32 slots)";
  VpeState vpe;
  vpe.id = node;
  vpe.node = node;
  vpe.is_service = is_service;
  VpeState* v = vpes_.Insert(std::move(vpe));
  CHECK(v != nullptr);
  // Every VPE starts with a capability for itself (selector 0).
  CapPayload payload;
  payload.type = CapType::kVpe;
  CreateCap(v, CapType::kVpe, payload, DdlKey());
}

CapSel Kernel::AdminGrantMem(VpeId vpe_id, NodeId mem_node, uint64_t base, uint64_t size,
                             uint32_t perms) {
  VpeState* v = vpes_.Find(vpe_id);
  CHECK(v != nullptr);
  CapPayload payload;
  payload.type = CapType::kMem;
  payload.mem_node = mem_node;
  payload.mem_base = base;
  payload.mem_size = size;
  payload.perms = perms;
  Capability* cap = CreateCap(v, CapType::kMem, payload, DdlKey());
  return cap->sel();
}

const VpeState* Kernel::FindVpe(VpeId vpe) const { return vpes_.Find(vpe); }

std::string Kernel::DumpCaps() const {
  std::ostringstream os;
  os << "kernel " << config_.id << ": " << vpes_.size() << " VPEs, " << caps_.size()
     << " capabilities\n";
  vpes_.ForEach([&](const VpeState& vpe) {
    os << "  vpe " << vpe.id << (vpe.alive ? "" : " (dead)") << (vpe.is_service ? " (service)" : "")
       << ": " << vpe.table.size() << " caps\n";
    vpe.table.ForEach([&](CapSel sel, DdlKey key) {
      const Capability* cap = caps_.Find(key);
      if (cap == nullptr) {
        os << "    sel " << sel << ": <missing " << key.raw() << ">\n";
        return;
      }
      os << "    sel " << sel << ": " << CapTypeName(cap->type()) << " key=" << key.raw();
      if (!cap->parent().IsNull()) {
        os << " parent@k" << config_.membership.KernelOfKey(cap->parent());
      }
      if (!cap->children().empty()) {
        os << " children=[";
        bool first = true;
        for (DdlKey child : cap->children()) {
          os << (first ? "" : " ") << "k" << config_.membership.KernelOfKey(child);
          first = false;
        }
        os << "]";
      }
      if (cap->marked()) {
        os << " MARKED";
      }
      if (cap->activated()) {
        os << " ep" << cap->activated_ep();
      }
      os << "\n";
    });
  });
  return os.str();
}

Capability* Kernel::CapOf(VpeId vpe, CapSel sel) const {
  const VpeState* v = vpes_.Find(vpe);
  if (v == nullptr) {
    return nullptr;
  }
  DdlKey key = v->table.Find(sel);
  return key.IsNull() ? nullptr : caps_.Find(key);
}

// ---------------------------------------------------------------------------
// Capability helpers
// ---------------------------------------------------------------------------

DdlKey Kernel::AllocKey(VpeId creator, CapType type) {
  // The creator's PE id selects the key partition, so any kernel can map the
  // key back to this kernel through the membership table (paper §3.2).
  return DdlKey::Make(creator, creator, type, next_obj_++);
}

Capability* Kernel::CreateCap(VpeState* vpe, CapType type, const CapPayload& payload,
                              DdlKey parent) {
  CapSel sel = vpe->AllocSel();
  DdlKey key = AllocKey(vpe->id, type);
  Capability* cap = caps_.Create(key, type, vpe->id, sel);
  cap->payload() = payload;
  cap->payload().type = type;
  cap->set_parent(parent);
  vpe->table.Set(sel, key);
  stats_.caps_created++;
  return cap;
}

void Kernel::UnlinkFromParent(Capability* cap) {
  DdlKey parent = cap->parent();
  if (parent.IsNull()) {
    return;
  }
  UnlinkChildAtParent(parent, cap->key(), /*orphan=*/false);
}

void Kernel::UnlinkChildAtParent(DdlKey parent, DdlKey child, bool orphan) {
  if (KernelOf(parent) == config_.id) {
    // The parent's partition may be mid-transfer: its snapshot (including
    // the children list) was packed when the transfer started, so a local
    // unlink now would be silently undone when the destination installs
    // the stale copy. Defer and re-route once the handoff resolves.
    for (auto& [id, task] : migrate_tasks_) {
      (void)id;
      if (task->phase == MigrateTask::Phase::kTransfer && task->pe == parent.pe()) {
        task->deferred_unlinks.push_back(
            [this, parent, child, orphan] { UnlinkChildAtParent(parent, child, orphan); });
        return;
      }
    }
    Capability* p = caps_.Find(parent);
    if (p != nullptr) {
      p->RemoveChild(child);
    }
    return;
  }
  // Remote parent: notify its kernel asynchronously. If the parent is being
  // revoked itself, the receiver simply finds the key already gone.
  auto msg = NewMsg<IkcMsg>();
  msg->op = orphan ? IkcOp::kOrphanNotify : IkcOp::kChildDrop;
  msg->parent = parent;
  msg->child = child;
  SendIkc(KernelOf(parent), msg, [](const IkcReply&) {});
}

// ---------------------------------------------------------------------------
// System call entry
// ---------------------------------------------------------------------------

void Kernel::OnSyscall(EpId ep, const Message& msg) {
  const SyscallMsg* req = msg.As<SyscallMsg>();
  CHECK(req != nullptr) << "non-syscall message on syscall EP";
  stats_.syscalls++;
  AcquireThread();

  SyscallCtx ctx;
  ctx.vpe = req->vpe;
  ctx.recv_ep = ep;
  ctx.msg = msg;
  if (obs::Tracer* tr = tracer(); tr != nullptr && msg.body->trace_id != 0) {
    ctx.trace_span = tr->NextSpanId(pe_->node());
    ctx.trace_start = pe_->sim()->Now();
  }

  if (shutting_down_) {
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kAborted);
    return;
  }
  VpeState* v = vpes_.Find(req->vpe);
  if (v == nullptr || !v->alive) {
    // A migrated-away VPE may race its endpoint retarget: its retry must
    // get the retryable kVpeMigrating, not a terminal kNoSuchVpe.
    bool migrated = migrated_away_.count(req->vpe) > 0;
    if (migrated) {
      stats_.syscalls_frozen++;
    }
    ErrCode err = migrated ? ErrCode::kVpeMigrating : ErrCode::kNoSuchVpe;
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), err);
    return;
  }
  if (v->migrating) {
    // Frozen for migration: the user-level runtime retries transparently;
    // by then the syscall endpoint points at the new kernel.
    stats_.syscalls_frozen++;
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kVpeMigrating);
    return;
  }

  // Messages the handler sends on this call's behalf nest under its span.
  cur_trace_ = TraceCtx{msg.body->trace_id, ctx.trace_span};
  switch (req->op) {
    case SyscallOp::kNoop:
      SysNoop(std::move(ctx), *req);
      break;
    case SyscallOp::kOpenSession:
      SysOpenSession(std::move(ctx), *req);
      break;
    case SyscallOp::kExchange:
      SysExchange(std::move(ctx), *req);
      break;
    case SyscallOp::kObtain:
      SysObtain(std::move(ctx), *req);
      break;
    case SyscallOp::kDelegate:
      SysDelegate(std::move(ctx), *req);
      break;
    case SyscallOp::kRevoke:
      SysRevoke(std::move(ctx), *req);
      break;
    case SyscallOp::kActivate:
      SysActivate(std::move(ctx), *req);
      break;
    case SyscallOp::kDeriveMem:
      SysDeriveMem(std::move(ctx), *req);
      break;
    case SyscallOp::kRegisterService:
      SysRegisterService(std::move(ctx), *req);
      break;
  }
  cur_trace_ = TraceCtx{};
}

void Kernel::ReplySyscall(SyscallCtx ctx, ErrCode err, CapSel sel, const CapPayload& payload,
                          MsgRef opaque) {
  auto reply = NewMsg<SyscallReply>();
  reply->err = err;
  reply->sel = sel;
  reply->cap = payload;
  reply->payload = std::move(opaque);
  ReplySyscall(std::move(ctx), std::move(reply));
}

void Kernel::ReplySyscall(SyscallCtx ctx, std::shared_ptr<SyscallReply> reply) {
  ReleaseThread();
  const SyscallMsg* req = ctx.msg.As<SyscallMsg>();
  const VpeState* v = vpes_.Find(ctx.vpe);
  bool reachable = (v != nullptr && v->alive) || migrated_away_.count(ctx.vpe) > 0;
  if (!reachable) {
    // The caller died while the operation was in flight; just free the slot.
    // (Migrated-away VPEs are alive elsewhere and must still get their
    // kVpeMigrating answer, or their retry loop would hang.)
    pe_->dtu().Ack(ctx.recv_ep, ctx.msg);
    return;
  }
  reply->token = req->token;
  if (obs::Tracer* tr = tracer(); tr != nullptr && ctx.trace_span != 0) {
    uint64_t trace = ctx.msg.body->trace_id;
    // The reply's transit span hangs under the syscall span.
    reply->trace_id = trace;
    reply->trace_parent = ctx.trace_span;
    RecordSpan(tr, trace, ctx.trace_span, ctx.msg.body->trace_parent, ctx.trace_start,
               pe_->sim()->Now(), pe_->node(), obs::SpanKind::kSyscall,
               static_cast<uint16_t>(req->op));
  }
  pe_->dtu().Reply(ctx.recv_ep, ctx.msg, std::move(reply));
}

void Kernel::SysNoop(SyscallCtx ctx, const SyscallMsg& req) {
  (void)req;
  FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kOk);
}

// ---------------------------------------------------------------------------
// Shutdown (IKC functional group 1)
// ---------------------------------------------------------------------------

void Kernel::AdminShutdown(InlineFn done) {
  CHECK(!shutting_down_);
  shutting_down_ = true;

  // Tear down every VPE of the group; their capabilities — including copies
  // delegated into other groups — are revoked recursively.
  std::vector<VpeId> ids;
  vpes_.ForEach([&ids](const VpeState& vpe) {
    if (vpe.alive) {
      ids.push_back(vpe.id);
    }
  });
  Countdown maybe_done(static_cast<uint32_t>(ids.size()) + PeerCount() + 1, std::move(done));
  for (VpeId id : ids) {
    AdminKillVpe(id, maybe_done);
  }
  // Announce the shutdown so peers stop routing requests to this group.
  for (KernelId peer = 0; peer < config_.kernel_nodes.size(); ++peer) {
    if (peer == config_.id) {
      continue;
    }
    auto msg = NewMsg<IkcMsg>();
    msg->op = IkcOp::kShutdown;
    SendIkc(peer, msg, [maybe_done](const IkcReply&) { maybe_done(); });
  }
  maybe_done();
}

// ---------------------------------------------------------------------------
// Activate & derive
// ---------------------------------------------------------------------------

void Kernel::SysActivate(SyscallCtx ctx, const SyscallMsg& req) {
  Capability* cap = CapOf(req.vpe, req.sel);
  if (cap == nullptr) {
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kNoSuchCap);
    return;
  }
  if (cap->marked()) {
    stats_.pointless_denials++;
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kCapRevoked);
    return;
  }
  NodeId node = vpes_.At(req.vpe).node;
  stats_.activates++;
  Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode + t_.ep_config);

  if (cap->type() == CapType::kMem) {
    cap->SetActivated(req.ep);
    const CapPayload& p = cap->payload();
    MemPerms perms{(p.perms & kPermR) != 0, (p.perms & kPermW) != 0};
    pe_->dtu().ConfigureRemoteMem(node, req.ep, p.mem_node, p.mem_base, p.mem_size, perms,
                                  [this, ctx = std::move(ctx)]() mutable {
                                    FinishSyscall(t_.syscall_reply, std::move(ctx), ErrCode::kOk);
                                  });
    return;
  }
  if (cap->type() == CapType::kSession || cap->type() == CapType::kSendGate) {
    cap->SetActivated(req.ep);
    const CapPayload& p = cap->payload();
    pe_->dtu().ConfigureRemoteSend(node, req.ep, p.dst_node, p.dst_ep, /*credits=*/1,
                                   /*label=*/p.session, [this, ctx = std::move(ctx)]() mutable {
                                     FinishSyscall(t_.syscall_reply, std::move(ctx), ErrCode::kOk);
                                   });
    return;
  }
  FinishSyscall(t_.syscall_reply, std::move(ctx), ErrCode::kInvalidCapType);
}

void Kernel::SysDeriveMem(SyscallCtx ctx, const SyscallMsg& req) {
  Capability* cap = CapOf(req.vpe, req.sel);
  if (cap == nullptr || cap->type() != CapType::kMem) {
    ErrCode err = cap == nullptr ? ErrCode::kNoSuchCap : ErrCode::kInvalidCapType;
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), err);
    return;
  }
  if (cap->marked()) {
    stats_.pointless_denials++;
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kCapRevoked);
    return;
  }
  const CapPayload& p = cap->payload();
  if (req.arg0 + req.arg1 > p.mem_size || (req.perms & ~p.perms) != 0) {
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kNoPerm);
    return;
  }
  CapPayload child_payload = p;
  child_payload.mem_base = p.mem_base + req.arg0;
  child_payload.mem_size = req.arg1;
  child_payload.perms = req.perms;
  Capability* child = CreateCap(&vpes_.At(req.vpe), CapType::kMem, child_payload, cap->key());
  cap->AddChild(child->key());
  stats_.derives++;
  auto reply = NewMsg<SyscallReply>();
  reply->err = ErrCode::kOk;
  reply->sel = child->sel();
  reply->cap = child_payload;
  Finish(t_.syscall_dispatch + t_.exchange_validate + t_.cap_create + t_.tree_insert +
             3 * t_.ddl_decode + t_.syscall_reply,
         [this, ctx = std::move(ctx), reply = std::move(reply)]() mutable {
           ReplySyscall(std::move(ctx), std::move(reply));
         });
}

// ---------------------------------------------------------------------------
// Service registry
// ---------------------------------------------------------------------------

void Kernel::SysRegisterService(SyscallCtx ctx, const SyscallMsg& req) {
  VpeState* vpe = &vpes_.At(req.vpe);
  vpe->is_service = true;
  CapPayload payload;
  payload.type = CapType::kService;
  payload.dst_node = vpe->node;
  payload.dst_ep = user_ep::kServiceRecv;
  Capability* cap = CreateCap(vpe, CapType::kService, payload, DdlKey());

  ServiceEntry entry;
  entry.name = req.name;
  entry.kernel = config_.id;
  entry.cap = cap->key();
  entry.node = vpe->node;
  entry.vpe = vpe->id;
  services_[req.name].push_back(entry);

  // Announce to all peer kernels (IKC functional group 2, §4.1).
  for (KernelId peer = 0; peer < config_.kernel_nodes.size(); ++peer) {
    if (peer == config_.id) {
      continue;
    }
    auto msg = NewMsg<IkcMsg>();
    msg->op = IkcOp::kServiceAnnounce;
    msg->name = req.name;
    msg->cap = cap->key();
    msg->node = vpe->node;
    msg->vpe = vpe->id;
    SendIkc(peer, msg, [](const IkcReply&) {});
  }
  CapSel sel = cap->sel();
  Finish(t_.syscall_dispatch + t_.cap_create + t_.syscall_reply,
         [this, ctx = std::move(ctx), sel]() mutable {
           ReplySyscall(std::move(ctx), ErrCode::kOk, sel);
         });
}

}  // namespace semperos
