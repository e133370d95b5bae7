#include "trace/replayer.h"

#include <utility>

#include "base/log.h"
#include "dtu/msg_pool.h"
#include "fs/fs_image.h"

namespace semperos {

namespace {
const char* kTag = "replayer";
}  // namespace

TraceReplayer::TraceReplayer(Trace trace, NodeId kernel_node, const TimingModel& timing,
                             std::string service_name, UniqueFn<void(const Result&)> on_done)
    : trace_(std::move(trace)),
      kernel_node_(kernel_node),
      t_(timing),
      service_name_(std::move(service_name)),
      on_done_(std::move(on_done)) {}

void TraceReplayer::Setup() {
  env_ = std::make_unique<UserEnv>(pe_, kernel_node_, t_.ask_party);
  env_->SetupEps(/*is_service=*/false);
}

void TraceReplayer::Start() {
  result_.start = pe_->sim()->Now();
  env_->OpenSession(service_name_, [this](const SyscallReply& reply) {
    CHECK(reply.err == ErrCode::kOk) << "session open failed: " << ErrName(reply.err);
    session_sel_ = reply.sel;
    result_.cap_ops++;  // the session capability obtain
    NextOp();
  });
}

void TraceReplayer::NextOp() {
  if (op_index_ >= trace_.ops.size()) {
    result_.done = true;
    result_.end = pe_->sim()->Now();
    result_.syscalls = env_->syscalls_issued();
    LOG_DEBUG(kTag) << "vpe " << pe_->node() << " finished " << trace_.app << " in "
                    << CyclesToMicros(result_.runtime()) << "us, " << result_.cap_ops
                    << " cap ops";
    if (on_done_) {
      on_done_(result_);
    }
    return;
  }
  const TraceOp& op = trace_.ops[op_index_++];
  switch (op.kind) {
    case TraceOpKind::kOpen:
      DoOpen(op);
      return;
    case TraceOpKind::kRead:
      DoIo(op, /*write=*/false);
      return;
    case TraceOpKind::kWrite:
      DoIo(op, /*write=*/true);
      return;
    case TraceOpKind::kSeek: {
      auto it = files_.find(op.path);
      CHECK(it != files_.end()) << "seek on closed file " << op.path;
      it->second.cursor = op.offset;
      NextOp();
      return;
    }
    case TraceOpKind::kClose:
      DoClose(op);
      return;
    case TraceOpKind::kStat:
      DoMeta(op, FsOp::kStat);
      return;
    case TraceOpKind::kMkdir:
      DoMeta(op, FsOp::kMkdir);
      return;
    case TraceOpKind::kUnlink:
      DoMeta(op, FsOp::kUnlink);
      return;
    case TraceOpKind::kReadDir:
      DoMeta(op, FsOp::kReadDir);
      return;
    case TraceOpKind::kCompute:
      env_->Compute(op.compute, [this] { NextOp(); });
      return;
  }
}

EpId TraceReplayer::AllocMemEp() {
  // A PE has 8 memory endpoints (user_ep::kMem0..+7); each open file binds
  // one. Applications therefore keep at most 8 files' data mapped at once —
  // all traced workloads stay well below that.
  for (uint32_t i = 0; i < user_ep::kNumMemEps; ++i) {
    if ((mem_eps_in_use_ & (1u << i)) == 0) {
      mem_eps_in_use_ |= (1u << i);
      return user_ep::kMem0 + i;
    }
  }
  CHECK(false) << "VPE " << pe_->node() << " has more than 8 files with active extents";
  return 0;
}

void TraceReplayer::FreeMemEp(EpId ep) {
  uint32_t i = ep - user_ep::kMem0;
  CHECK_LT(i, user_ep::kNumMemEps);
  mem_eps_in_use_ &= ~(1u << i);
}

void TraceReplayer::DoOpen(const TraceOp& op) {
  CHECK(files_.count(op.path) == 0) << "double open of " << op.path;
  auto req = NewMsg<FsRequest>();
  req->op = FsOp::kOpen;
  req->path = op.path;
  req->flags = op.flags;
  // trace_ outlives the replay and is never modified, so the continuation
  // reads the op in place instead of copying its path.
  const TraceOp* top = &op;
  env_->Exchange(session_sel_, req, [this, top](const SyscallReply& reply) {
    CHECK(reply.err == ErrCode::kOk) << "open " << top->path << " failed: " << ErrName(reply.err);
    const FsReply* fs = MsgAs<FsReply>(reply.payload);
    CHECK(fs != nullptr);
    result_.cap_ops++;  // extent-0 capability obtain
    OpenFile file;
    file.fid = fs->fid;
    file.flags = top->flags;
    file.extent_sel = reply.sel;
    file.mem_ep = AllocMemEp();
    file.extent_start = 0;
    file.extent_len = reply.cap.mem_size;
    file.handed = 1;
    EpId ep = file.mem_ep;
    CapSel sel = file.extent_sel;
    files_[top->path] = file;
    env_->Activate(sel, ep, [this](const SyscallReply& areply) {
      CHECK(areply.err == ErrCode::kOk);
      NextOp();
    });
  });
}

void TraceReplayer::FetchExtent(OpenFile* file, uint64_t offset, InlineFn then) {
  fetch_then_ = std::move(then);
  auto req = NewMsg<FsRequest>();
  req->op = FsOp::kNextExtent;
  req->fid = file->fid;
  req->offset = offset;
  env_->Exchange(session_sel_, std::move(req), [this, file, offset](const SyscallReply& reply) {
    CHECK(reply.err == ErrCode::kOk) << "next-extent failed: " << ErrName(reply.err);
    result_.cap_ops++;
    file->extent_sel = reply.sel;
    file->extent_start = offset / kFsExtentBytes * kFsExtentBytes;
    file->extent_len = reply.cap.mem_size;
    file->handed++;
    env_->Activate(file->extent_sel, file->mem_ep, [this](const SyscallReply& areply) {
      CHECK(areply.err == ErrCode::kOk);
      InlineFn fetched = std::move(fetch_then_);
      fetched();
    });
  });
}

void TraceReplayer::DoIo(const TraceOp& op, bool write) {
  auto it = files_.find(op.path);
  CHECK(it != files_.end()) << "I/O on closed file " << op.path;
  IoChunk(&it->second, write, op.bytes);
}

void TraceReplayer::IoChunk(OpenFile* file, bool write, uint64_t remaining) {
  if (remaining == 0) {
    NextOp();
    return;
  }
  uint64_t extent_end = file->extent_start + file->extent_len;
  if (file->cursor < file->extent_start || file->cursor >= extent_end) {
    // "If the application exceeds this range ... it is provided with an
    // additional memory capability to the next range" (paper §5.3.1).
    FetchExtent(file, file->cursor, [this, file, write, remaining] {
      IoChunk(file, write, remaining);
    });
    return;
  }
  uint64_t chunk = std::min(remaining, extent_end - file->cursor);
  uint64_t in_extent = file->cursor - file->extent_start;
  auto done = [this, file, write, remaining, chunk] {
    file->cursor += chunk;
    IoChunk(file, write, remaining - chunk);
  };
  if (write) {
    env_->WriteMem(file->mem_ep, in_extent, chunk, done);
  } else {
    env_->ReadMem(file->mem_ep, in_extent, chunk, done);
  }
}

void TraceReplayer::DoClose(const TraceOp& op) {
  auto it = files_.find(op.path);
  CHECK(it != files_.end()) << "close of unopened file " << op.path;
  uint64_t fid = it->second.fid;
  FreeMemEp(it->second.mem_ep);
  files_.erase(it);
  auto req = NewMsg<FsRequest>();
  req->op = FsOp::kClose;
  req->fid = fid;
  env_->Request(req, [this](const Message& msg) {
    const FsReply* fs = msg.As<FsReply>();
    CHECK(fs != nullptr && fs->err == ErrCode::kOk);
    // The service revoked one capability per handed extent on our behalf.
    result_.cap_ops += fs->revoked;
    NextOp();
  });
}

void TraceReplayer::DoMeta(const TraceOp& op, FsOp fs_op) {
  auto req = NewMsg<FsRequest>();
  req->op = fs_op;
  req->path = op.path;
  bool unlink = fs_op == FsOp::kUnlink;
  const TraceOp* top = &op;  // see DoOpen
  env_->Request(req, [this, unlink, top](const Message& msg) {
    const FsReply* fs = msg.As<FsReply>();
    CHECK(fs != nullptr);
    if (unlink) {
      // Unlink-while-open revoked this file's handed capabilities.
      result_.cap_ops += fs->revoked;
      auto it = files_.find(top->path);
      if (it != files_.end()) {
        it->second.handed = 0;
      }
    }
    NextOp();
  });
}

}  // namespace semperos
