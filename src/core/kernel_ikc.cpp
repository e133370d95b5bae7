// IKC engine (paper §4.1): flow-controlled kernel-to-kernel messaging,
// kCapBatch containers, and request dispatch. The Kernel class
// overview is in kernel.h.
#include "core/kernel.h"

#include <algorithm>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"

namespace semperos {

// ---------------------------------------------------------------------------
// IKC engine — flow-controlled kernel-to-kernel messaging (paper §4.1)
// ---------------------------------------------------------------------------

void Kernel::SendIkc(KernelId peer, std::shared_ptr<IkcMsg> msg, IkcReplyFn cb) {
  CHECK_NE(peer, config_.id);
  msg->src_kernel = config_.id;
  if (msg->token == 0) {
    msg->token = next_token_++;
  }
  if (peer_failed_.at(peer) != 0) {
    // The peer is quorum-confirmed dead: fail fast with the same deferred
    // kUnreachable a recovery abort produces, instead of leaking a token
    // that waits on a reply that can never come.
    stats_.ft_ikcs_aborted++;
    uint64_t token = msg->token;
    pe_->sim()->Schedule(0, [cb = std::move(cb), token]() mutable {
      if (cb) {
        IkcReply reply;
        reply.token = token;
        reply.err = ErrCode::kUnreachable;
        cb(reply);
      }
    });
    return;
  }
  PendingIkc pending;
  pending.token = msg->token;
  pending.peer = peer;
  pending.cb = std::move(cb);
  if (obs::Tracer* tr = tracer(); tr != nullptr && cur_trace_.trace != 0) {
    pending.trace = cur_trace_.trace;
    pending.trace_parent = cur_trace_.parent;
    pending.trace_span = tr->NextSpanId(pe_->node());
    pending.trace_start = pe_->sim()->Now();
    pending.trace_op = static_cast<uint16_t>(msg->op);
    // Everything the remote kernel does on this call's behalf nests under
    // the round-trip span — that is how trees cross kernels.
    msg->trace_id = pending.trace;
    msg->trace_parent = pending.trace_span;
  }
  ikcs_.emplace(msg->token, std::move(pending));

  EnqueueIkc(peer, std::move(msg));
}

bool Kernel::IsBatchableOp(IkcOp op) {
  switch (op) {
    case IkcOp::kObtainReq:
    case IkcOp::kOpenSessionReq:
    case IkcOp::kDelegateReq:
    case IkcOp::kDelegateAck:
    case IkcOp::kRevokeReq:
    case IkcOp::kOrphanNotify:
    case IkcOp::kChildDrop:
    case IkcOp::kRelayNotice:
      return true;
    default:
      // Control traffic (hello, shutdown, announce, migration, epoch,
      // fault tolerance) and the container itself always travel solo: their
      // ordering relative to buffered capability requests is what the FIFO
      // flush below preserves.
      return false;
  }
}

void Kernel::EnqueueIkc(KernelId peer, std::shared_ptr<IkcMsg> msg) {
  stats_.ikc_op_sent[static_cast<size_t>(msg->op)]++;
  PeerState& state = peers_[peer];
  if (IsBatchableOp(msg->op)) {
    // Buffer in the peer's open batch. The epoch stamp lets the receiver
    // spot containers whose entries straddle a membership change — routing
    // is per-op there, so a mixed batch is observable but harmless.
    msg->batch_epoch = config_.membership.Epoch();
    if (state.batch.empty()) {
      state.batch_opened = pe_->sim()->Now();
    }
    state.batch.push_back(std::move(msg));
    if (state.batch.size() >= config_.batch_max_ops) {
      FlushBatch(peer);
    } else if (!state.batch_timer_armed) {
      state.batch_timer_armed = true;
      pe_->sim()->Schedule(config_.batch_window, [this, peer] {
        peers_[peer].batch_timer_armed = false;
        if (dead_) {
          return;
        }
        FlushBatch(peer);
      });
    }
    return;
  }
  // Non-batchable: anything buffered for this peer must leave first —
  // pairwise FIFO between operations is a correctness precondition
  // (§4.3.1), and messages like kMigrateVpe rely on every earlier
  // capability request reaching the peer ahead of them.
  FlushBatch(peer);
  if (state.credits == 0) {
    // All four in-flight slots at the peer are taken (paper §4.1); the
    // request waits here instead of overflowing the peer's receive EP.
    stats_.ikc_flow_queued++;
  }
  state.queue.push_back(std::move(msg));
  DispatchIkc(peer);
}

void Kernel::FlushBatch(KernelId peer) {
  PeerState& state = peers_[peer];
  if (state.batch.empty()) {
    return;
  }
  std::vector<std::shared_ptr<IkcMsg>> ops = std::move(state.batch);
  state.batch.clear();
  std::shared_ptr<IkcMsg> wire;
  if (ops.size() == 1) {
    // A batch of one leaves as the bare request: no container overhead on
    // the wire, and the receiver needs no special casing.
    wire = std::move(ops.front());
  } else {
    wire = NewMsg<IkcMsg>();
    wire->op = IkcOp::kCapBatch;
    wire->src_kernel = config_.id;
    wire->batch = std::move(ops);
    stats_.ikc_op_sent[static_cast<size_t>(IkcOp::kCapBatch)]++;
    stats_.ikc_batches_sent++;
    stats_.ikc_batched_ops += wire->batch.size();
    stats_.ikc_batch_ops_max =
        std::max<uint64_t>(stats_.ikc_batch_ops_max, wire->batch.size());
    // The container inherits the first traced sub-request's context (one
    // wire message, one transit span); each sub keeps its own context, so
    // every tree stays connected through the coalescing. The kBatch span
    // makes the flush-window wait visible, sized by the batch.
    for (const std::shared_ptr<IkcMsg>& sub : wire->batch) {
      if (sub->trace_id != 0) {
        wire->trace_id = sub->trace_id;
        wire->trace_parent = sub->trace_parent;
        break;
      }
    }
    if (obs::Tracer* tr = tracer(); tr != nullptr && wire->trace_id != 0) {
      RecordSpan(tr, wire->trace_id, tr->NextSpanId(pe_->node()), wire->trace_parent,
                 state.batch_opened, pe_->sim()->Now(), pe_->node(), obs::SpanKind::kBatch,
                 static_cast<uint16_t>(wire->batch.size()));
    }
  }
  if (state.credits == 0) {
    stats_.ikc_flow_queued++;
  }
  state.queue.push_back(std::move(wire));
  DispatchIkc(peer);
}

void Kernel::SendIkcRelay(KernelId peer, std::shared_ptr<IkcMsg> msg) {
  // Relayed forward of a stale-epoch request: src_kernel and token stay the
  // origin's (the final owner's reply correlates there, not here), and no
  // pending entry is registered — this kernel leaves the request's path the
  // moment the forward is out. The caller verified the peer is alive.
  CHECK_NE(peer, config_.id);
  if (obs::Tracer* tr = tracer(); tr != nullptr && msg->trace_id != 0) {
    // Zero-length marker: the hop's transit and final service get their own
    // spans; this records *that* the walk bounced through this kernel.
    Cycles now = pe_->sim()->Now();
    RecordSpan(tr, msg->trace_id, tr->NextSpanId(pe_->node()), msg->trace_parent, now, now,
               pe_->node(), obs::SpanKind::kRelay, static_cast<uint16_t>(msg->op));
  }
  EnqueueIkc(peer, std::move(msg));
}

Cycles Kernel::IkcSendCost(KernelId peer, IkcOp op) const {
  if (!IsBatchableOp(op) || peer == config_.id || peer >= peers_.size()) {
    return t_.ikc_send;
  }
  // Opening a batch pays the full send (the flush window starts here);
  // appending to an open one only pays the marshalling.
  return peers_[peer].batch.empty() ? t_.ikc_send : t_.ikc_batch_op;
}

Cycles Kernel::DdlDecodeCost(DdlKey key) {
  if (key.IsNull() || KernelOf(key) == config_.id) {
    return t_.ddl_decode;
  }
  if (ddl_cache_.Lookup(key, config_.membership.Epoch())) {
    stats_.ddl_cache_hits++;
    return t_.ddl_cache_hit;
  }
  stats_.ddl_cache_misses++;
  return t_.ddl_decode;
}

Cycles Kernel::DdlDecodeCostVpe(VpeId vpe) {
  // Paths that route by a peer VPE rather than a concrete capability key
  // probe with the partition's canonical VPE key.
  return DdlDecodeCost(DdlKey::Make(vpe, vpe, CapType::kVpe, 0));
}

void Kernel::DispatchIkc(KernelId peer) {
  PeerState& state = peers_[peer];
  while (state.credits > 0 && !state.queue.empty()) {
    std::shared_ptr<IkcMsg> msg = std::move(state.queue.front());
    state.queue.pop_front();
    state.credits--;
    stats_.ikc_sent++;
    NodeId peer_node = config_.kernel_nodes.at(peer);
    // Peer receive EP: 8 + (sender % 8) — eight senders share one EP, four
    // in-flight messages each: 8 EPs x 32 slots cover 64 kernels (§5.1).
    EpId dst_ep = kEpKernel0 + (config_.id % kNumKernelEps);
    EpId reply_ep = kEpKernel0 + (peer % kNumKernelEps);
    Emit(pe_->sim()->Now(), [this, peer_node, dst_ep, reply_ep, msg = std::move(msg)] {
      pe_->dtu().SendTo(peer_node, dst_ep, msg, reply_ep);
    });
  }
}

void Kernel::ReplyIkc(EpId recv_ep, const Message& msg, std::shared_ptr<IkcReply> reply) {
  // The request's slot was already freed at dispatch (see OnIkc); logical
  // replies travel as reply-typed messages that need no slot.
  (void)recv_ep;
  // Close the handler span opened at dispatch (possibly long ago, for
  // suspended revocations) and hand the reply its trace context.
  if (auto it = ikc_handling_.find({msg.src_node, reply->token}); it != ikc_handling_.end()) {
    const IkcHandling& h = it->second;
    reply->trace_id = h.trace;
    reply->trace_parent = h.span;
    RecordSpan(tracer(), h.trace, h.span, h.parent, h.start, pe_->sim()->Now(), pe_->node(),
               obs::SpanKind::kIkc, h.op);
    ikc_handling_.erase(it);
  }
  pe_->dtu().SendDeferredReply(msg, std::move(reply));
}

void Kernel::OnIkc(EpId ep, const Message& msg) {
  if (msg.is_reply) {
    if (const IkcCredit* credit = msg.As<IkcCredit>()) {
      // Flow control: the peer dispatched one of our requests; its receive
      // slot is free again, so another request may go out (§4.1).
      PeerState& state = peers_[credit->from];
      state.credits++;
      CHECK_LE(state.credits, config_.max_inflight);
      DispatchIkc(credit->from);
      return;
    }
    const IkcReply* reply = msg.As<IkcReply>();
    CHECK(reply != nullptr);
    auto it = ikcs_.find(reply->token);
    if (it == ikcs_.end()) {
      // Only an aborted call can be answered late: recovery completed it
      // with kUnreachable, yet the request was in fact dispatched (or
      // short-circuited by a relaying forwarder) and its reply lands here
      // afterwards. Any other unknown token is a protocol bug.
      CHECK(aborted_ikcs_.erase(reply->token) == 1)
          << "IKC reply for unknown token " << reply->token;
      stats_.ikc_late_replies++;
      return;
    }
    PendingIkc pending = std::move(it->second);
    ikcs_.erase(it);
    if (pending.trace_span != 0) {
      RecordSpan(tracer(), pending.trace, pending.trace_span, pending.trace_parent,
                 pending.trace_start, pe_->sim()->Now(), pe_->node(), obs::SpanKind::kIkcRtt,
                 pending.trace_op);
      // The continuation acts for the enclosing operation again.
      cur_trace_ = TraceCtx{pending.trace, pending.trace_parent};
    }
    if (pending.cb) {
      pending.cb(*reply);
    }
    cur_trace_ = TraceCtx{};
    return;
  }

  const IkcMsg* req = msg.As<IkcMsg>();
  CHECK(req != nullptr);
  stats_.ikc_received++;
  stats_.ikc_op_received[static_cast<size_t>(req->op)]++;
  // Pull the message out of the DTU: free the slot and return the sender's
  // in-flight credit immediately. The logical reply is deferred — for
  // revocations possibly for a long time — without blocking the channel,
  // which keeps deep alternating revocation chains deadlock-free (§4.3.3).
  // The credit routes by the *wire* message — a relayed request's rewritten
  // reply address (see RouteIkcRequest) must never redirect it.
  pe_->dtu().Ack(ep, msg);
  auto credit = NewMsg<IkcCredit>();
  credit->from = config_.id;
  Emit(pe_->sim()->Now(), [this, msg, credit] { pe_->dtu().SendDeferredReply(msg, credit); });

  if (req->op == IkcOp::kCapBatch) {
    // The container shell is not itself routable — each sub-request routes
    // (parks, forwards, dispatches) individually below.
    DispatchIkcRequest(ep, msg, *req);
    return;
  }
  RouteIkcRequest(ep, msg, *req);
}

void Kernel::RouteIkcRequest(EpId ep, const Message& msg, const IkcMsg& req) {
  if (req.relay_node != kInvalidNode) {
    // Relayed request: every deferred reply must reach the walk's origin,
    // not the previous hop. SendDeferredReply routes purely by the
    // Message's src_node/reply_ep, so a rewritten copy redirects all of
    // them — including a further forward's kUnreachable short-circuit and
    // replies sent after parking.
    Message dmsg = msg;
    dmsg.src_node = req.relay_node;
    dmsg.reply_ep = req.relay_ep;
    if (!MaybeForwardIkc(ep, dmsg, req)) {
      DispatchIkcRequest(ep, dmsg, req);
    }
    return;
  }
  if (!MaybeForwardIkc(ep, msg, req)) {
    DispatchIkcRequest(ep, msg, req);
  }
}

void Kernel::DispatchIkcRequest(EpId ep, const Message& msg, const IkcMsg& request) {
  const IkcMsg* req = &request;
  // Open the handler span; ReplyIkc closes it by (requester node, token).
  // The container itself never replies — its sub-requests open their own
  // entries when the loop below re-enters here per sub.
  TraceCtx saved_trace = cur_trace_;
  obs::Tracer* tr = tracer();
  if (tr != nullptr && req->trace_id != 0 && req->op != IkcOp::kCapBatch) {
    IkcHandling h;
    h.trace = req->trace_id;
    h.parent = req->trace_parent;
    h.span = tr->NextSpanId(pe_->node());
    h.start = pe_->sim()->Now();
    h.op = static_cast<uint16_t>(req->op);
    ikc_handling_[{msg.src_node, req->token}] = h;
    cur_trace_ = TraceCtx{h.trace, h.span};
  } else {
    cur_trace_ = TraceCtx{};
  }
  switch (req->op) {
    case IkcOp::kHello: {
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_dispatch + t_.ikc_send), ep, msg, std::move(reply));
      break;
    }
    case IkcOp::kShutdown: {
      // The peer's group is going away: stop routing sessions to its
      // services and remember that it is down.
      peer_down_.at(req->src_kernel) = true;
      for (auto& [name, entries] : services_) {
        (void)name;
        std::erase_if(entries,
                      [&](const ServiceEntry& e) { return e.kernel == req->src_kernel; });
      }
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_dispatch + t_.ikc_send), ep, msg, std::move(reply));
      break;
    }
    case IkcOp::kServiceAnnounce: {
      ServiceEntry entry;
      entry.name = req->name;
      entry.kernel = req->src_kernel;
      entry.cap = req->cap;
      entry.node = req->node;
      entry.vpe = req->vpe;
      services_[req->name].push_back(entry);
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_dispatch + t_.ikc_send), ep, msg, std::move(reply));
      break;
    }
    case IkcOp::kObtainReq:
    case IkcOp::kOpenSessionReq: {
      AcquireThread();
      bool open_session = req->op == IkcOp::kOpenSessionReq;
      bool service_mediated = open_session || req->opaque != nullptr;
      Charge(t_.ikc_dispatch + t_.ikc_exchange_extra + t_.exchange_validate + t_.ddl_decode +
                 (service_mediated ? t_.session_exchange_extra : 0));
      AskOp ask_op = open_session ? AskOp::kOpenSession
                                  : (req->opaque ? AskOp::kExchange : AskOp::kObtain);
      VpeId owner_vpe;
      CapSel owner_sel = kInvalidSel;
      if (req->cap.IsNull()) {
        owner_vpe = req->peer;
        owner_sel = static_cast<CapSel>(req->payload.session);
      } else {
        Capability* anchor = caps_.Find(req->cap);
        if (anchor == nullptr) {
          auto reply = NewMsg<IkcReply>();
          reply->token = req->token;
          reply->err = ErrCode::kNoSuchCap;
          EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
          ReleaseThread();
          break;
        }
        owner_vpe = anchor->holder();
      }
      uint64_t token = req->token;
      uint64_t session = req->payload.session;
      OwnerSideObtain(ask_op, req->cap, owner_vpe, owner_sel, req->vpe, req->child,
                      req->opaque, session,
                      [this, ep, msg, token](ErrCode err, DdlKey parent,
                                             const CapPayload& payload, MsgRef opq,
                                             uint64_t new_session) {
                        auto reply = NewMsg<IkcReply>();
                        reply->token = token;
                        reply->err = err;
                        reply->cap = parent;
                        reply->payload = payload;
                        reply->payload.session =
                            new_session != 0 ? new_session : reply->payload.session;
                        reply->opaque = std::move(opq);
                        EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
                        ReleaseThread();
                      });
      break;
    }
    case IkcOp::kDelegateReq: {
      Charge(t_.ikc_dispatch + t_.ikc_exchange_extra);
      OwnerSideDelegate(*req, ep, msg);
      break;
    }
    case IkcOp::kDelegateAck: {
      uint64_t token = req->token;
      ApplyDelegateAck(req->payload.session != 0, req->child,
                       [this, ep, msg, token](ErrCode err) {
                         auto reply = NewMsg<IkcReply>();
                         reply->token = token;
                         reply->err = err;
                         EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
                       });
      break;
    }
    case IkcOp::kRevokeReq: {
      OnRevokeReq(ep, msg, *req);
      break;
    }
    case IkcOp::kOrphanNotify: {
      Capability* parent = caps_.Find(req->parent);
      if (parent != nullptr) {
        parent->RemoveChild(req->child);
        stats_.orphans_cleaned++;
      }
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_dispatch + t_.ddl_decode + t_.ikc_send), ep, msg,
                   std::move(reply));
      break;
    }
    case IkcOp::kChildDrop: {
      Capability* parent = caps_.Find(req->parent);
      if (parent != nullptr) {
        parent->RemoveChild(req->child);
      }
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_dispatch + t_.ddl_decode + t_.ikc_send), ep, msg,
                   std::move(reply));
      break;
    }
    case IkcOp::kMigrateVpe: {
      OnMigrateVpe(ep, msg, *req);
      break;
    }
    case IkcOp::kEpochUpdate: {
      ApplyMembershipUpdate(req->node, req->new_owner, req->epoch);
      stats_.epoch_updates++;
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_dispatch + t_.epoch_apply + t_.ikc_send), ep, msg,
                   std::move(reply));
      break;
    }
    case IkcOp::kSuspectKernel: {
      Charge(t_.ikc_dispatch);
      RecordSuspectVote(req->suspect, req->src_kernel);
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
      break;
    }
    case IkcOp::kFailoverDecree: {
      Charge(t_.ikc_dispatch);
      RecoverFromFailure(req->suspect, req->epoch);
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
      break;
    }
    case IkcOp::kCapBatch: {
      // Container: one wire message, one credit, one dispatch — then every
      // sub-request routes individually. Per-op routing is load-bearing: a
      // batch racing an epoch update may mix entries enqueued under
      // different epochs, and settle-round forwarding must apply to
      // exactly the stale ones, never to the whole container.
      Charge(t_.ikc_dispatch);
      uint64_t first_epoch = req->batch.empty() ? 0 : req->batch.front()->batch_epoch;
      for (const std::shared_ptr<IkcMsg>& sub : req->batch) {
        if (sub->batch_epoch != first_epoch) {
          stats_.ikc_batch_mixed_epoch++;
          break;
        }
      }
      for (const std::shared_ptr<IkcMsg>& sub : req->batch) {
        stats_.ikc_op_received[static_cast<size_t>(sub->op)]++;
        RouteIkcRequest(ep, msg, *sub);
      }
      break;
    }
    case IkcOp::kRelayNotice: {
      ApplyRelayNotice(*req);
      auto reply = NewMsg<IkcReply>();
      reply->token = req->token;
      EmitIkcReply(Charge(t_.ikc_dispatch + t_.epoch_apply + t_.ikc_send), ep, msg,
                   std::move(reply));
      break;
    }
  }
  cur_trace_ = saved_trace;
}

}  // namespace semperos
