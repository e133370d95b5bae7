// Trace replayer: the application program running on a user PE.
//
// Replays one Trace against m3fs: opens a session, performs the trace
// operations in order (a VPE is single-threaded, paper §2.2), counts the
// capability-modifying operations it causes, and reports its runtime — the
// quantity behind the parallel-efficiency figures (paper §5.3.1).
#ifndef SEMPEROS_TRACE_REPLAYER_H_
#define SEMPEROS_TRACE_REPLAYER_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>

#include "core/timing.h"
#include "core/userlib.h"
#include "fs/protocol.h"
#include "pe/pe.h"
#include "trace/trace.h"

namespace semperos {

class TraceReplayer : public Program {
 public:
  struct Result {
    bool done = false;
    Cycles start = 0;
    Cycles end = 0;
    uint32_t cap_ops = 0;   // session open + exchanges + revokes caused
    uint64_t syscalls = 0;  // total syscalls issued (incl. activates)
    Cycles runtime() const { return end - start; }
  };

  TraceReplayer(Trace trace, NodeId kernel_node, const TimingModel& timing,
                std::string service_name = "m3fs",
                UniqueFn<void(const Result&)> on_done = nullptr);

  void Setup() override;
  void Start() override;

  const Result& result() const { return result_; }
  UserEnv& env() { return *env_; }

 private:
  struct OpenFile {
    std::string_view path;  // the opening trace op's path (trace_ is immutable)
    uint64_t fid = 0;
    uint32_t flags = 0;
    CapSel extent_sel = kInvalidSel;
    EpId mem_ep = 0;
    uint64_t extent_start = 0;
    uint64_t extent_len = 0;
    uint64_t cursor = 0;
  };

  // The open file named `path`, or null.
  OpenFile* FileOf(std::string_view path);
  // Binds a free memory endpoint; its slot in files_ holds the file.
  OpenFile* AllocFile();
  void NextOp();
  void DoOpen(const TraceOp& op);
  void DoIo(const TraceOp& op, bool write);
  void IoChunk(OpenFile* file, bool write, uint64_t remaining);
  // Obtains and activates the extent covering `offset`, then runs `then`.
  void FetchExtent(OpenFile* file, uint64_t offset, InlineFn then);
  void DoClose(const TraceOp& op);
  void DoMeta(const TraceOp& op, FsOp fs_op);

  Trace trace_;
  NodeId kernel_node_;
  TimingModel t_;
  std::string service_name_;
  UniqueFn<void(const Result&)> on_done_;
  InlineFn fetch_then_;  // FetchExtent's continuation (one syscall at a time)

  std::unique_ptr<UserEnv> env_;
  CapSel session_sel_ = kInvalidSel;
  // Open files by memory endpoint: files_[i] binds user_ep::kMem0 + i.
  std::array<OpenFile, user_ep::kNumMemEps> files_;
  size_t op_index_ = 0;
  uint8_t mem_eps_in_use_ = 0;  // bitmap over the 8 memory endpoints
  Result result_;
};

}  // namespace semperos

#endif  // SEMPEROS_TRACE_REPLAYER_H_
