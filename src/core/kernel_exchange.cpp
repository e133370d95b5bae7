// Capability exchange (paper §4.3.2): the obtain path, sessions and
// session exchanges, the delegate handshake, and the kernel's asks to
// parties and services. The Kernel class overview is in kernel.h.
#include "core/kernel.h"

#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"

namespace semperos {

// ---------------------------------------------------------------------------
// Obtain path — local and group-spanning (paper §4.3.2, Figure 3)
// ---------------------------------------------------------------------------

void Kernel::OwnerSideObtain(AskOp ask_op, DdlKey owner_cap, VpeId owner_vpe, CapSel owner_sel,
                             VpeId client, DdlKey child_key, MsgRef opaque, uint64_t session,
                             ObtainDoneFn done) {
  VpeState* owner = vpes_.Find(owner_vpe);
  if (owner == nullptr || !owner->alive) {
    done(ErrCode::kVpeGone, DdlKey(), CapPayload(), nullptr, 0);
    return;
  }
  if (owner->migrating) {
    // The owner's partition is being handed off; like the Pointless denial
    // this is rejected immediately, but with a retryable code — the retry
    // routes to the new kernel through the updated membership table.
    done(ErrCode::kVpeMigrating, DdlKey(), CapPayload(), nullptr, 0);
    return;
  }

  // Resolve the capability that anchors this exchange (except for session
  // exchanges, where the service names the shared capability in its reply).
  Capability* anchor = nullptr;
  if (ask_op != AskOp::kExchange) {
    anchor = owner_cap.IsNull() ? CapOf(owner_vpe, owner_sel) : caps_.Find(owner_cap);
    if (anchor == nullptr) {
      done(ErrCode::kNoSuchCap, DdlKey(), CapPayload(), nullptr, 0);
      return;
    }
    if (anchor->marked()) {
      // "we immediately deny exchanges of capabilities that are in
      // revocation, which prevents pointless capability exchanges" (§4.3.3).
      stats_.pointless_denials++;
      done(ErrCode::kCapRevoked, DdlKey(), CapPayload(), nullptr, 0);
      return;
    }
  }

  auto ask = NewMsg<AskMsg>();
  ask->op = ask_op;
  ask->client = client;
  ask->sel = owner_sel;
  ask->session = session;
  ask->payload = std::move(opaque);

  AskParty(owner->node, std::move(ask),
           [this, ask_op, owner_vpe, child_key,
            done = std::move(done)](const AskReply& reply) mutable {
             if (reply.err != ErrCode::kOk) {
               done(reply.err, DdlKey(), CapPayload(), reply.payload, reply.session);
               return;
             }
             // Re-resolve: the capability may have been revoked while we
             // were waiting for the party.
             Capability* parent = CapOf(owner_vpe, reply.share_sel);
             if (parent == nullptr) {
               done(ErrCode::kNoSuchCap, DdlKey(), CapPayload(), reply.payload, reply.session);
               return;
             }
             if (parent->marked()) {
               stats_.pointless_denials++;
               done(ErrCode::kCapRevoked, DdlKey(), CapPayload(), reply.payload, reply.session);
               return;
             }
             // Link the proposed child into the mapping database. If the
             // obtainer dies before materializing it, this entry is the
             // "orphaned capability" of §4.3.2, cleaned up via notification.
             Charge(t_.tree_insert + t_.ddl_decode);
             parent->AddChild(child_key);
             CapPayload payload = parent->payload();
             if (ask_op == AskOp::kOpenSession) {
               payload.type = CapType::kSession;
               payload.session = reply.session;
               payload.service = parent->key();
             }
             done(ErrCode::kOk, parent->key(), payload, reply.payload, reply.session);
           });
}

void Kernel::FinishObtain(ObtainOp op, ErrCode err, DdlKey parent, const CapPayload& payload,
                          MsgRef opaque) {
  if (err != ErrCode::kOk) {
    Finish(t_.syscall_reply,
           [this, sc = std::move(op.sc), opaque = std::move(opaque), err]() mutable {
             ReplySyscall(std::move(sc), err, kInvalidSel, CapPayload(), std::move(opaque));
           });
    return;
  }
  VpeState* client = vpes_.Find(op.sc.vpe);
  if (client == nullptr || !client->alive) {
    // Obtainer died while the exchange was in flight: the owner now tracks
    // an orphaned child. Notify its kernel for quick removal (§4.3.2).
    stats_.orphans_cleaned++;
    UnlinkChildAtParent(parent, op.child_key, /*orphan=*/true);
    ReleaseThread();
    pe_->dtu().Ack(op.sc.recv_ep, op.sc.msg);
    return;
  }

  CapSel sel = client->AllocSel();
  Capability* cap = caps_.Create(op.child_key, payload.type, op.sc.vpe, sel);
  cap->payload() = payload;
  cap->set_parent(parent);
  client->table.Set(sel, op.child_key);
  stats_.caps_created++;
  stats_.obtains++;

  auto reply = NewMsg<SyscallReply>();
  reply->err = ErrCode::kOk;
  reply->sel = sel;
  reply->cap = payload;
  reply->payload = std::move(opaque);
  if (op.open_session) {
    stats_.sessions_opened++;
    // Configure the client's session send gate (the channel of Figure 3
    // that afterwards works without the kernel).
    Charge(t_.cap_create + t_.ddl_decode + t_.ep_config);
    pe_->dtu().ConfigureRemoteSend(
        client->node, user_ep::kServiceSend, op.service_node, user_ep::kServiceRecv,
        /*credits=*/1, /*label=*/payload.session,
        [this, sc = std::move(op.sc), reply = std::move(reply)]() mutable {
          Finish(t_.syscall_reply,
                 [this, sc = std::move(sc), reply = std::move(reply)]() mutable {
                   ReplySyscall(std::move(sc), std::move(reply));
                 });
        });
    return;
  }
  Finish(t_.cap_create + t_.ddl_decode + t_.syscall_reply,
         [this, sc = std::move(op.sc), reply = std::move(reply)]() mutable {
           ReplySyscall(std::move(sc), std::move(reply));
         });
}

void Kernel::SysObtain(SyscallCtx ctx, const SyscallMsg& req) {
  ObtainOp op;
  op.token = next_token_++;
  op.sc = std::move(ctx);
  op.child_key = AllocKey(req.vpe, CapType::kNone);

  if (IsLocalVpe(req.peer)) {
    Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode);
    OwnerSideObtain(AskOp::kObtain, DdlKey(), req.peer, req.sel, req.vpe, op.child_key, nullptr, 0,
                    [this, op = std::move(op)](ErrCode err, DdlKey parent,
                                               const CapPayload& payload, MsgRef opq,
                                               uint64_t) mutable {
                      FinishObtain(std::move(op), err, parent, payload, std::move(opq));
                    });
    return;
  }

  // Group-spanning: forward to the owner's kernel (Figure 3, sequence B).
  stats_.spanning_obtains++;
  uint64_t token = op.token;
  obtains_.emplace(token, std::move(op));
  Charge(t_.syscall_dispatch + DdlDecodeCostVpe(req.peer) +
         IkcSendCost(KernelOfVpe(req.peer), IkcOp::kObtainReq));
  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kObtainReq;
  msg->vpe = req.vpe;
  msg->peer = req.peer;
  msg->cap = DdlKey();
  msg->child = op.child_key;
  // Reuse the syscall's selector as the owner-side selector.
  msg->payload.session = req.sel;
  SendIkc(KernelOfVpe(req.peer), msg, [this, token](const IkcReply& reply) {
    auto it = obtains_.find(token);
    CHECK(it != obtains_.end());
    ObtainOp pending = std::move(it->second);
    obtains_.erase(it);
    Charge(t_.ikc_reply_handle);
    FinishObtain(std::move(pending), reply.err, reply.cap, reply.payload, reply.opaque);
  });
}

// ---------------------------------------------------------------------------
// Sessions and session exchanges (service-mediated obtains)
// ---------------------------------------------------------------------------

const Kernel::ServiceEntry* Kernel::PickService(const std::string& name, VpeId client) const {
  auto it = services_.find(name);
  if (it == services_.end() || it->second.empty()) {
    return nullptr;
  }
  const std::vector<ServiceEntry>& entries = it->second;
  // Kernels "prefer to connect their applications to the service in their PE
  // group over a service in another PE group" (paper §5.3.2).
  const ServiceEntry* local_pick = nullptr;
  uint32_t locals = 0;
  for (const ServiceEntry& e : entries) {
    if (e.kernel == config_.id) {
      locals++;
    }
  }
  if (locals > 0) {
    uint32_t idx = client % locals;
    for (const ServiceEntry& e : entries) {
      if (e.kernel == config_.id) {
        if (idx == 0) {
          local_pick = &e;
          break;
        }
        idx--;
      }
    }
    return local_pick;
  }
  return &entries[client % entries.size()];
}

void Kernel::SysOpenSession(SyscallCtx ctx, const SyscallMsg& req) {
  const ServiceEntry* svc = PickService(req.name, req.vpe);
  if (svc == nullptr) {
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kNoSuchService);
    return;
  }

  ObtainOp op;
  op.token = next_token_++;
  op.sc = std::move(ctx);
  op.child_key = AllocKey(req.vpe, CapType::kSession);
  op.open_session = true;
  op.service_node = svc->node;

  if (svc->kernel == config_.id) {
    Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode + t_.session_exchange_extra);
    OwnerSideObtain(AskOp::kOpenSession, svc->cap, svc->vpe, kInvalidSel, req.vpe, op.child_key,
                    nullptr, 0,
                    [this, op = std::move(op)](ErrCode err, DdlKey parent,
                                               const CapPayload& payload, MsgRef opq,
                                               uint64_t) mutable {
                      FinishObtain(std::move(op), err, parent, payload, std::move(opq));
                    });
    return;
  }

  stats_.spanning_obtains++;
  uint64_t token = op.token;
  obtains_.emplace(token, std::move(op));
  Charge(t_.syscall_dispatch + DdlDecodeCost(svc->cap) +
         IkcSendCost(svc->kernel, IkcOp::kOpenSessionReq));
  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kOpenSessionReq;
  msg->vpe = req.vpe;
  msg->cap = svc->cap;
  msg->child = op.child_key;
  SendIkc(svc->kernel, msg, [this, token](const IkcReply& reply) {
    auto it = obtains_.find(token);
    CHECK(it != obtains_.end());
    ObtainOp pending = std::move(it->second);
    obtains_.erase(it);
    Charge(t_.ikc_reply_handle);
    FinishObtain(std::move(pending), reply.err, reply.cap, reply.payload, reply.opaque);
  });
}

void Kernel::SysExchange(SyscallCtx ctx, const SyscallMsg& req) {
  Capability* session = CapOf(req.vpe, req.sel);
  if (session == nullptr || session->type() != CapType::kSession) {
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx),
                  session == nullptr ? ErrCode::kNoSuchCap : ErrCode::kInvalidCapType);
    return;
  }
  if (session->marked()) {
    stats_.pointless_denials++;
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kCapRevoked);
    return;
  }

  DdlKey service_cap = session->payload().service;
  uint64_t session_id = session->payload().session;
  KernelId owner_kernel = KernelOf(service_cap);

  ObtainOp op;
  op.token = next_token_++;
  op.sc = std::move(ctx);
  op.child_key = AllocKey(req.vpe, CapType::kNone);

  if (owner_kernel == config_.id) {
    Capability* svc_cap = caps_.Find(service_cap);
    if (svc_cap == nullptr) {
      FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(op.sc), ErrCode::kNoSuchCap);
      return;
    }
    Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode + t_.session_exchange_extra);
    OwnerSideObtain(AskOp::kExchange, service_cap, svc_cap->holder(), kInvalidSel, req.vpe,
                    op.child_key, req.payload, session_id,
                    [this, op = std::move(op)](ErrCode err, DdlKey parent,
                                               const CapPayload& payload, MsgRef opq,
                                               uint64_t) mutable {
                      FinishObtain(std::move(op), err, parent, payload, std::move(opq));
                    });
    return;
  }

  stats_.spanning_obtains++;
  uint64_t token = op.token;
  obtains_.emplace(token, std::move(op));
  Charge(t_.syscall_dispatch + DdlDecodeCost(service_cap) +
         IkcSendCost(owner_kernel, IkcOp::kObtainReq));
  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kObtainReq;
  msg->vpe = req.vpe;
  msg->cap = service_cap;
  msg->child = op.child_key;
  msg->opaque = req.payload;
  msg->payload.session = session_id;
  SendIkc(owner_kernel, msg, [this, token](const IkcReply& reply) {
    auto it = obtains_.find(token);
    CHECK(it != obtains_.end());
    ObtainOp pending = std::move(it->second);
    obtains_.erase(it);
    Charge(t_.ikc_reply_handle);
    FinishObtain(std::move(pending), reply.err, reply.cap, reply.payload, reply.opaque);
  });
}

// ---------------------------------------------------------------------------
// Delegate path — two-way handshake (paper §4.3.2)
// ---------------------------------------------------------------------------

void Kernel::SysDelegate(SyscallCtx ctx, const SyscallMsg& req) {
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

  DelegateOp op;
  op.token = next_token_++;
  op.sc = std::move(ctx);
  op.cap = cap->key();
  op.peer = req.peer;

  if (IsLocalVpe(req.peer)) {
    // Group-internal delegate: no handshake needed, one kernel owns both.
    VpeState* peer_vpe = vpes_.Find(req.peer);
    if (peer_vpe == nullptr || !peer_vpe->alive) {
      FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(op.sc), ErrCode::kVpeGone);
      return;
    }
    if (peer_vpe->migrating) {
      FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(op.sc),
                    ErrCode::kVpeMigrating);
      return;
    }
    Charge(t_.syscall_dispatch + t_.exchange_validate + t_.ddl_decode);
    auto ask = NewMsg<AskMsg>();
    ask->op = AskOp::kDelegate;
    ask->client = req.vpe;
    ask->offered = cap->payload();
    AskParty(peer_vpe->node, std::move(ask),
             [this, op = std::move(op)](const AskReply& reply) mutable {
               if (reply.err != ErrCode::kOk) {
                 FinishSyscall(t_.syscall_reply, std::move(op.sc), reply.err);
                 return;
               }
               Capability* parent = caps_.Find(op.cap);
               if (parent == nullptr || parent->marked()) {
                 stats_.pointless_denials += (parent != nullptr);
                 FinishSyscall(t_.syscall_reply, std::move(op.sc), ErrCode::kCapRevoked);
                 return;
               }
               VpeState* receiver = vpes_.Find(op.peer);
               if (receiver == nullptr || !receiver->alive) {
                 FinishSyscall(t_.syscall_reply, std::move(op.sc), ErrCode::kVpeGone);
                 return;
               }
               Capability* child = CreateCap(receiver, parent->type(), parent->payload(),
                                             parent->key());
               parent->AddChild(child->key());
               stats_.delegates++;
               FinishSyscall(t_.cap_create + t_.tree_insert + 2 * t_.ddl_decode + t_.syscall_reply,
                             std::move(op.sc), ErrCode::kOk);
             });
    return;
  }

  // Group-spanning delegate.
  stats_.spanning_delegates++;
  uint64_t token = op.token;
  delegates_.emplace(token, std::move(op));
  Charge(t_.syscall_dispatch + t_.exchange_validate + DdlDecodeCostVpe(req.peer) +
         IkcSendCost(KernelOfVpe(req.peer), IkcOp::kDelegateReq));
  auto msg = NewMsg<IkcMsg>();
  msg->op = IkcOp::kDelegateReq;
  msg->vpe = req.vpe;
  msg->peer = req.peer;
  msg->cap = cap->key();
  msg->payload = cap->payload();
  SendIkc(KernelOfVpe(req.peer), msg, [this, token](const IkcReply& reply) {
    auto it = delegates_.find(token);
    CHECK(it != delegates_.end());
    DelegateOp pending = std::move(it->second);
    delegates_.erase(it);
    Charge(t_.ikc_reply_handle);
    FinishDelegate(std::move(pending), reply.err, reply.child);
  });
}

void Kernel::FinishDelegate(DelegateOp op, ErrCode err, DdlKey child_key) {
  if (err != ErrCode::kOk) {
    FinishSyscall(t_.syscall_reply, std::move(op.sc), err);
    return;
  }
  // Second leg of the handshake: only if the delegated capability still
  // exists do we link the child and tell the peer kernel to materialize it.
  // "if the delegator is killed while waiting... the delegated capability
  // stays valid at the receiving VPE" — prevented here (§4.3.2, "Invalid").
  Capability* parent = caps_.Find(op.cap);
  bool ok = parent != nullptr && !parent->marked();
  auto ack = NewMsg<IkcMsg>();
  ack->op = IkcOp::kDelegateAck;
  ack->child = child_key;
  ack->cap = op.cap;
  KernelId peer_kernel = KernelOfVpe(op.peer);
  if (ok) {
    parent->AddChild(child_key);
    stats_.delegates++;
    Charge(t_.tree_insert + t_.ddl_decode + IkcSendCost(peer_kernel, IkcOp::kDelegateAck));
  } else {
    stats_.invalid_prevented++;
    Charge(IkcSendCost(peer_kernel, IkcOp::kDelegateAck));
  }
  ack->payload.session = ok ? 0 : 1;  // non-zero session field = abort
  if (peer_kernel == config_.id) {
    // The receiver's partition migrated onto this kernel mid-handshake
    // (the request reached its old owner, which forwarded it here, so the
    // parked child sits in our own table): deliver the ACK locally.
    ApplyDelegateAck(!ok, child_key, nullptr);
  } else {
    SendIkc(peer_kernel, ack, [](const IkcReply&) {});
  }
  FinishSyscall(t_.syscall_reply, std::move(op.sc), ok ? ErrCode::kOk : ErrCode::kCapRevoked);
}

void Kernel::ApplyDelegateAck(bool abort, DdlKey child_key, UniqueFn<void(ErrCode)> reply) {
  auto it = parked_delegates_.find(child_key.raw());
  CHECK(it != parked_delegates_.end()) << "delegate ack for unknown parked child";
  ParkedDelegate parked = std::move(it->second);
  parked_delegates_.erase(it);
  ErrCode err = ErrCode::kOk;
  if (!abort) {
    VpeState* receiver = vpes_.Find(parked.receiver);
    if (receiver != nullptr && receiver->alive) {
      CapSel sel = receiver->AllocSel();
      Capability* cap =
          caps_.Create(parked.child_key, parked.payload.type, parked.receiver, sel);
      cap->payload() = parked.payload;
      cap->set_parent(parked.parent_key);
      receiver->table.Set(sel, parked.child_key);
      stats_.caps_created++;
      Charge(t_.ikc_reply_handle + t_.tree_insert + t_.ddl_decode);
    } else {
      // Receiver died while waiting for the ACK: unlink the orphaned child
      // entry at the parent capability's kernel (§4.3.2). Route by the
      // parent's key, not the request's source — a forwarded delegate
      // carries the forwarder as source, and the parent's partition itself
      // may have migrated since the child was parked.
      stats_.orphans_cleaned++;
      UnlinkChildAtParent(parked.parent_key, parked.child_key, /*orphan=*/true);
      err = ErrCode::kVpeGone;
      Charge(t_.ikc_reply_handle);
    }
  } else {
    Charge(t_.ikc_reply_handle);
  }
  if (reply) {
    reply(err);
  }
}

void Kernel::OwnerSideDelegate(const IkcMsg& req, EpId recv_ep, const Message& msg) {
  VpeState* receiver = vpes_.Find(req.peer);
  if (receiver == nullptr || !receiver->alive || receiver->migrating) {
    auto reply = NewMsg<IkcReply>();
    reply->token = req.token;
    reply->err = (receiver != nullptr && receiver->migrating) ? ErrCode::kVpeMigrating
                                                              : ErrCode::kVpeGone;
    EmitIkcReply(Charge(t_.ikc_send), recv_ep, msg, std::move(reply));
    return;
  }
  auto ask = NewMsg<AskMsg>();
  ask->op = AskOp::kDelegate;
  ask->client = req.vpe;
  ask->offered = req.payload;
  uint64_t token = req.token;
  DdlKey parent_key = req.cap;
  CapPayload payload = req.payload;
  KernelId from = req.src_kernel;
  VpeId peer = req.peer;
  AskParty(receiver->node, ask,
           [this, token, parent_key, payload, from, peer, recv_ep, msg](const AskReply& areply) {
             if (areply.err != ErrCode::kOk) {
               auto reply = NewMsg<IkcReply>();
               reply->token = token;
               reply->err = areply.err;
               EmitIkcReply(Charge(t_.ikc_send), recv_ep, msg, std::move(reply));
               return;
             }
             // Create the child capability but do NOT insert it into the
             // receiver's capability tree yet — that happens on the ACK
             // (two-way handshake, §4.3.2).
             DdlKey child_key = AllocKey(peer, payload.type);
             ParkedDelegate parked;
             parked.child_key = child_key;
             parked.parent_key = parent_key;
             parked.receiver = peer;
             parked.payload = payload;
             parked.from_kernel = from;
             parked_delegates_[child_key.raw()] = parked;
             auto reply = NewMsg<IkcReply>();
             reply->token = token;
             reply->err = ErrCode::kOk;
             reply->child = child_key;
             EmitIkcReply(Charge(t_.cap_create + t_.ddl_decode + t_.ikc_send), recv_ep, msg,
                          std::move(reply));
           });
}

// ---------------------------------------------------------------------------
// Party asks
// ---------------------------------------------------------------------------

void Kernel::AskParty(NodeId node, std::shared_ptr<AskMsg> ask, AskReplyFn cb) {
  ask->token = next_token_++;
  PendingAsk pending;
  pending.token = ask->token;
  pending.node = node;
  pending.cb = std::move(cb);
  if (obs::Tracer* tr = tracer(); tr != nullptr && cur_trace_.trace != 0) {
    pending.trace = cur_trace_.trace;
    pending.trace_parent = cur_trace_.parent;
    pending.trace_span = tr->NextSpanId(pe_->node());
    pending.trace_start = pe_->sim()->Now();
    pending.trace_op = static_cast<uint16_t>(ask->op);
    ask->trace_id = pending.trace;
    ask->trace_parent = pending.trace_span;
  }
  asks_.emplace(ask->token, std::move(pending));

  AskWindow& window = ask_windows_[node];
  if (window.inflight < config_.service_ask_inflight) {
    window.inflight++;
    pe_->dtu().SendTo(node, user_ep::kAsk, std::move(ask), kEpAskReply);
  } else {
    window.queue.push_back([this, node, ask = std::move(ask)]() mutable {
      pe_->dtu().SendTo(node, user_ep::kAsk, std::move(ask), kEpAskReply);
    });
  }
}

void Kernel::OnAskReply(const Message& msg) {
  const AskReply* reply = msg.As<AskReply>();
  CHECK(reply != nullptr);
  auto it = asks_.find(reply->token);
  CHECK(it != asks_.end()) << "ask reply for unknown token";
  PendingAsk pending = std::move(it->second);
  asks_.erase(it);
  AskWindow& window = ask_windows_[pending.node];
  window.inflight--;
  if (!window.queue.empty()) {
    auto fn = std::move(window.queue.front());
    window.queue.pop_front();
    window.inflight++;
    fn();
  }
  if (pending.trace_span != 0) {
    RecordSpan(tracer(), pending.trace, pending.trace_span, pending.trace_parent,
               pending.trace_start, pe_->sim()->Now(), pe_->node(), obs::SpanKind::kAsk,
               pending.trace_op);
    cur_trace_ = TraceCtx{pending.trace, pending.trace_parent};
  }
  if (pending.cb) {
    pending.cb(*reply);
  }
  cur_trace_ = TraceCtx{};
}

}  // namespace semperos
