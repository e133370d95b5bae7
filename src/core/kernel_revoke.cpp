// Revocation (paper §4.3.3, Algorithm 1) and the admin VPE kill built on
// it. The Kernel class overview is in kernel.h.
#include "core/kernel.h"

#include <memory>
#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"

namespace semperos {

// ---------------------------------------------------------------------------
// Revocation — two-phase mark-and-sweep (paper §4.3.3, Algorithm 1)
// ---------------------------------------------------------------------------

RevokeTask* Kernel::NewRevokeTask(DdlKey root) {
  uint64_t id = next_token_++;
  RevokeTask& task = revoke_tasks_[id];
  task.id = id;
  task.root = root;
  return &task;
}

Cycles Kernel::MarkPass(Capability* cap, RevokeTask* task) {
  // Phase 1 of Algorithm 1 (`revoke_children`): mark the local subtree,
  // fan out REVOKE_REQs for remote children, and register dependencies on
  // overlapping revocations.
  cap->Mark(task);
  task->marked++;
  Cycles cost = t_.revoke_mark_per_cap + t_.ddl_decode;
  for (DdlKey child_key : cap->children()) {
    cost += DdlDecodeCost(child_key);  // decode the edge to find the owning kernel
    KernelId transfer_dst = MigratingTo(child_key.pe());
    if (transfer_dst != kInvalidKernel) {
      // The child's partition is in flight to another kernel. Marking the
      // local copy now would revoke state the destination is about to
      // resurrect; instead treat the child as remote and send the
      // REVOKE_REQ to the destination — pairwise FIFO guarantees the
      // MIGRATE_VPE snapshot arrives there first.
      stats_.spanning_revokes++;
      task->remote_children[transfer_dst].push_back(child_key);
      continue;
    }
    if (KernelOf(child_key) == config_.id) {
      Capability* child = caps_.Find(child_key);
      if (child == nullptr) {
        continue;  // already deleted by a completed overlapping revoke
      }
      if (child->marked()) {
        // Overlapping revocation: wait for the other task instead of
        // double-marking ("wait for the already outstanding kernel
        // replies", §4.3.3).
        task->outstanding++;
        uint64_t id = task->id;
        child->task()->on_complete.push_back([this, id] { RevokeDependencyDone(id); });
        continue;
      }
      cost += MarkPass(child, task);
    } else {
      stats_.spanning_revokes++;
      task->remote_children[KernelOf(child_key)].push_back(child_key);
    }
  }
  return cost;
}

Cycles Kernel::FlushRevokeRequests(RevokeTask* task) {
  // "the kernel managing the root capability sends out one message for each
  // child capability" (paper §5.2). Unless batch_max_ops = 1, the IKC layer
  // coalesces the requests bound for one peer into kCapBatch containers.
  Cycles cost = 0;
  uint64_t id = task->id;
  for (auto& [peer, keys] : task->remote_children) {
    for (DdlKey key : keys) {
      task->outstanding++;
      cost += IkcSendCost(peer, IkcOp::kRevokeReq);
      auto msg = NewMsg<IkcMsg>();
      msg->op = IkcOp::kRevokeReq;
      msg->cap = key;
      SendIkc(peer, msg, [this, id](const IkcReply&) {
        Charge(t_.ikc_reply_handle);
        RevokeDependencyDone(id);
      });
    }
  }
  task->remote_children.clear();
  return cost;
}

void Kernel::RevokeDependencyDone(uint64_t task_id) {
  auto it = revoke_tasks_.find(task_id);
  CHECK(it != revoke_tasks_.end());
  RevokeTask* task = &it->second;
  CHECK_GT(task->outstanding, 0u);
  task->outstanding--;
  CheckRevokeComplete(task);
}

void Kernel::CheckRevokeComplete(RevokeTask* task) {
  if (task->outstanding > 0) {
    return;  // the kernel thread stays suspended (paper §4.2)
  }
  // Phase 2: every remote child confirmed; delete the local subtree. The
  // sweep cost must be charged before the completion reply is posted —
  // acknowledgements only go out once the deletion work is done.
  uint32_t deleted = 0;
  Cycles cost = SweepPass(task->root, task, &deleted);
  Charge(cost);
  CompleteRevokeTask(task);
}

Cycles Kernel::SweepPass(DdlKey key, RevokeTask* task, uint32_t* deleted) {
  Capability* cap = caps_.Find(key);
  if (cap == nullptr || cap->task() != task) {
    return 0;  // remote child, or owned by an overlapping task
  }
  Cycles cost = 0;
  for (DdlKey child : cap->children()) {
    cost += SweepPass(child, task, deleted);
  }
  cost += t_.revoke_sweep_per_cap + t_.ddl_decode;
  if (cap->type() == CapType::kSession) {
    // The client's connection is gone; tell the service so it can drop the
    // session state (m3fs frees open-file bookkeeping).
    auto ask = NewMsg<AskMsg>();
    ask->op = AskOp::kCloseSession;
    ask->session = cap->payload().session;
    AskParty(cap->payload().dst_node, ask, [](const AskReply&) {});
  }
  if (cap->activated()) {
    // Enforce the revocation: invalidate the DTU endpoint this capability
    // was bound to (NoC-level isolation makes this sufficient).
    cost += t_.ep_invalidate;
    VpeState* h = vpes_.Find(cap->holder());
    if (h != nullptr) {
      pe_->dtu().InvalidateRemoteEp(h->node, cap->activated_ep(), nullptr);
    }
  }
  VpeState* holder = vpes_.Find(cap->holder());
  if (holder != nullptr) {
    holder->table.Erase(cap->sel());
  }
  caps_.Erase(key);
  stats_.caps_deleted++;
  (*deleted)++;
  return cost;
}

void Kernel::CompleteRevokeTask(RevokeTask* task) {
  // Unlink the root from its (possibly remote) parent, unless that parent
  // is being revoked by the kernel that asked us (the usual recursive case).
  if (task->initiator || task->admin) {
    Capability* root = caps_.Find(task->root);
    // The root was deleted by the sweep; its parent unlink happened through
    // the pre-recorded parent key.
    (void)root;
  }
  if (!task->parent_unlink.IsNull()) {
    UnlinkChildAtParent(task->parent_unlink, task->root, /*orphan=*/false);
  }

  if (task->initiator) {
    stats_.revokes++;
    SyscallCtx sc;
    sc.vpe = task->vpe;
    sc.recv_ep = task->reply_recv_ep;
    sc.msg = std::move(task->reply_msg);
    Cycles wake = task->suspended ? t_.revoke_resume : 0;
    FinishSyscall(wake + t_.revoke_finish + t_.syscall_reply, std::move(sc), ErrCode::kOk);
  } else if (task->admin) {
    if (task->admin_done) {
      Finish(t_.revoke_finish, std::move(task->admin_done));
    }
  } else {
    // Participant: reply to the requesting kernel only now that our entire
    // part of the subtree (including everything below remote children) is
    // gone — never acknowledge an incomplete revoke (§4.3.1 "Incomplete").
    auto reply = NewMsg<IkcReply>();
    reply->token = task->req_token;
    reply->err = ErrCode::kOk;
    EmitIkcReply(Charge(t_.ikc_send), task->reply_recv_ep, std::move(task->reply_msg),
                 std::move(reply));
  }

  for (auto& hook : task->on_complete) {
    hook();
  }
  uint64_t id = task->id;
  revoke_tasks_.erase(id);
}

void Kernel::SysRevoke(SyscallCtx ctx, const SyscallMsg& req) {
  Capability* cap = CapOf(req.vpe, req.sel);
  if (cap == nullptr) {
    FinishSyscall(t_.syscall_dispatch + t_.syscall_reply, std::move(ctx), ErrCode::kNoSuchCap);
    return;
  }
  if (cap->marked()) {
    // An overlapping revoke already covers this capability; wait for it so
    // our acknowledgement is never early (§4.3.3).
    cap->task()->on_complete.push_back([this, ctx = std::move(ctx)]() mutable {
      FinishSyscall(t_.revoke_finish + t_.syscall_reply, std::move(ctx), ErrCode::kOk);
    });
    return;
  }

  RevokeTask* task = NewRevokeTask(cap->key());
  task->initiator = true;
  task->vpe = ctx.vpe;
  task->reply_recv_ep = ctx.recv_ep;
  task->reply_msg = std::move(ctx.msg);
  task->parent_unlink = cap->parent();
  Cycles cost = t_.syscall_dispatch + t_.revoke_entry + MarkPass(cap, task);
  cost += FlushRevokeRequests(task);
  if (task->outstanding > 0) {
    // The syscall thread pauses at its preemption point until every remote
    // reply arrived ("wait_for_remote_children", Algorithm 1 / §4.2).
    task->suspended = true;
    cost += t_.revoke_suspend;
  }
  Charge(cost);
  CheckRevokeComplete(task);
}

void Kernel::OnRevokeReq(EpId ep, const Message& msg, const IkcMsg& req) {
  // "Our solution uses a maximum of two threads per kernel" for incoming
  // revocations, preventing denial-of-service through capability ping-pong
  // chains (§4.3.3). Crucially — exactly as in Algorithm 1 — the thread is
  // held only for the marking pass and is NOT paused while waiting for
  // remote replies ("the thread will not be paused to stay at a fixed
  // number of threads"); completion is driven by the reply counters. This
  // is what keeps deep alternating chains deadlock-free with two threads.
  if (revoke_threads_busy_ >= kMaxRevokeThreads) {
    stats_.revoke_reqs_queued++;
    revoke_queue_.push_back([this, ep, msg, req] { ProcessRevokeReq(ep, msg, req); });
    return;
  }
  revoke_threads_busy_++;
  ProcessRevokeReq(ep, msg, req);
  revoke_threads_busy_--;
  DrainRevokeQueue();
}

void Kernel::DrainRevokeQueue() {
  while (!revoke_queue_.empty() && revoke_threads_busy_ < kMaxRevokeThreads) {
    auto fn = std::move(revoke_queue_.front());
    revoke_queue_.pop_front();
    revoke_threads_busy_++;
    fn();
    revoke_threads_busy_--;
  }
}

void Kernel::ProcessRevokeReq(EpId ep, Message msg, const IkcMsg& req) {
  // May run deferred from the revoke queue, outside the dispatch that
  // opened the handler span — restore the context from the handling entry
  // so fanned-out REVOKE_REQs stay linked.
  TraceCtx saved_trace = cur_trace_;
  if (auto hit = ikc_handling_.find({msg.src_node, req.token}); hit != ikc_handling_.end()) {
    cur_trace_ = TraceCtx{hit->second.trace, hit->second.span};
  }
  Capability* cap = caps_.Find(req.cap);
  if (cap == nullptr) {
    // Already revoked by an overlapping operation — the subtree is gone.
    auto reply = NewMsg<IkcReply>();
    reply->token = req.token;
    reply->err = ErrCode::kOk;
    EmitIkcReply(Charge(t_.ikc_dispatch + t_.ikc_send), ep, msg, std::move(reply));
    cur_trace_ = saved_trace;
    return;
  }
  if (cap->marked()) {
    // A running revocation covers this capability; reply when it finished.
    uint64_t token = req.token;
    cap->task()->on_complete.push_back([this, ep, msg, token] {
      auto reply = NewMsg<IkcReply>();
      reply->token = token;
      reply->err = ErrCode::kOk;
      EmitIkcReply(Charge(t_.ikc_send), ep, msg, std::move(reply));
    });
    Charge(t_.ikc_dispatch);
    cur_trace_ = saved_trace;
    return;
  }

  RevokeTask* task = NewRevokeTask(cap->key());
  task->initiator = false;
  task->reply_recv_ep = ep;
  task->reply_msg = std::move(msg);
  task->req_token = req.token;
  Cycles cost = t_.ikc_dispatch + MarkPass(cap, task);
  cost += FlushRevokeRequests(task);
  Charge(cost);
  CheckRevokeComplete(task);
  cur_trace_ = saved_trace;
}

// ---------------------------------------------------------------------------
// VPE kill (admin) — revokes everything the VPE holds
// ---------------------------------------------------------------------------

void Kernel::AdminKillVpe(VpeId vpe, InlineFn done) {
  VpeState* v = vpes_.Find(vpe);
  CHECK(v != nullptr);
  CHECK(!v->migrating) << "cannot kill VPE " << vpe << " while it is migrating";
  v->alive = false;

  // Snapshot the selectors: revocations mutate the table.
  std::vector<DdlKey> roots;
  roots.reserve(v->table.size());
  v->table.ForEach([&roots](CapSel, const Capability* cap) { roots.push_back(cap->key()); });
  Countdown maybe_done(static_cast<uint32_t>(roots.size()) + 1, std::move(done));
  for (DdlKey key : roots) {
    Capability* cap = caps_.Find(key);
    if (cap == nullptr) {
      maybe_done();
      continue;
    }
    if (cap->marked()) {
      cap->task()->on_complete.push_back(maybe_done);
      continue;
    }
    RevokeTask* task = NewRevokeTask(cap->key());
    task->admin = true;
    task->admin_done = maybe_done;
    task->parent_unlink = cap->parent();
    Cycles cost = t_.revoke_entry + MarkPass(cap, task);
    cost += FlushRevokeRequests(task);
    Charge(cost);
    CheckRevokeComplete(task);
  }
  maybe_done();
}

}  // namespace semperos
