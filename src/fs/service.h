// m3fs: the in-memory filesystem service (paper §2.2, §5.3.1).
//
// The service is an ordinary user-level program. It registers with its
// group's kernel, answers the kernel's exchange-asks (session opens and
// extent requests), and serves meta operations directly over client session
// channels. File contents live in a memory region on a memory tile; access
// happens through memory capabilities the service derives from its root
// memory capability and hands to clients:
//
//   open        -> derive extent-0 capability, client obtains a copy
//   read/write
//   past extent -> derive next-extent capability, client obtains a copy
//   close       -> service revokes each derived capability, which
//                  recursively revokes the clients' copies and invalidates
//                  their DTU endpoints (paper: "When the file is closed
//                  again, the memory capabilities are revoked")
//   unlink of an open file revokes immediately (the SQLite journal pattern).
#ifndef SEMPEROS_FS_SERVICE_H_
#define SEMPEROS_FS_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/pool_alloc.h"
#include "core/timing.h"
#include "core/userlib.h"
#include "fs/fs_image.h"
#include "fs/protocol.h"
#include "pe/pe.h"

namespace semperos {

struct FsServiceStats {
  uint64_t sessions = 0;
  uint64_t opens = 0;
  uint64_t extents_handed = 0;
  uint64_t closes = 0;
  uint64_t metas = 0;
  uint64_t caps_revoked = 0;
};

class FsService : public Program {
 public:
  // `mem_root_sel` is the selector of the root memory capability covering
  // this service's image region (installed via Kernel::AdminGrantMem before
  // boot). `timing` supplies the per-operation handler costs.
  FsService(std::string name, FsImage image, NodeId kernel_node, const TimingModel& timing,
            CapSel mem_root_sel);

  void Setup() override;
  void Start() override;

  const FsServiceStats& stats() const { return fs_stats_; }
  bool registered() const { return service_sel_ != kInvalidSel; }
  const FsImage& image() const { return image_; }
  UserEnv& env() { return *env_; }

 private:
  // Derived extent capabilities of one open file (usually exactly one).
  using SelList = std::vector<CapSel, PoolAllocator<CapSel>>;
  struct OpenFile {
    std::string path;
    uint64_t fid = 0;
    uint32_t flags = 0;
    SelList handed;  // derived extent capabilities (our table)
  };
  struct Session {
    uint64_t id = 0;
    VpeId client = kInvalidVpe;
    PooledMap<uint64_t, OpenFile> files;  // keyed by fid
  };

  // Asks park their reply functor in ask_reply_; the handlers answer
  // through AnswerAsk.
  void OnAsk(const AskMsg& ask, UserEnv::AskReplyFn reply);
  void AnswerAsk(AskReply reply);
  void AskOpenSession(const AskMsg& ask);
  void AskExchange(const AskMsg& ask);
  void HandleOpen(Session* session, const FsRequest& req);
  void HandleNextExtent(Session* session, const FsRequest& req);

  void OnRequest(const Message& msg);
  void MetaClose(Session* session, const FsRequest& req, const Message& msg);
  void MetaStat(Session* session, const FsRequest& req, const Message& msg);
  void MetaMkdir(Session* session, const FsRequest& req, const Message& msg);
  void MetaUnlink(Session* session, const FsRequest& req, const Message& msg);
  void MetaReadDir(Session* session, const FsRequest& req, const Message& msg);

  // Derives the extent capability covering byte `offset` of `inode` and
  // returns (via cb) the new selector. Grows the file for writes.
  void DeriveExtent(Inode* inode, uint64_t offset, bool write,
                    UniqueFn<void(CapSel, uint64_t extent_len)> cb);

  // Revokes every selector in `handed` sequentially, then runs done.
  void RevokeHanded(SelList handed, InlineFn done);
  void RevokeNext();

  Session* SessionOf(uint64_t id);
  void ReplyMeta(const Message& msg, ErrCode err, uint64_t size = 0, uint32_t entries = 0,
                 uint32_t revoked = 0);

  std::string name_;
  FsImage image_;
  NodeId kernel_node_;
  TimingModel t_;
  CapSel mem_root_sel_;
  CapSel service_sel_ = kInvalidSel;
  std::unique_ptr<UserEnv> env_;

  // Session id -> session. Ids are handed out sequentially per service and
  // never reused, so the table is dense: SessionOf is one bounds check and
  // one load. Slot 0 (no session) and closed sessions are null; a Session
  // sits in its own pooled block, so a Session* stays valid while it lives.
  std::vector<PoolPtr<Session>> sessions_ = std::vector<PoolPtr<Session>>(1);
  // UserEnv hands the service one ask or request at a time, and a service
  // has at most one syscall outstanding. So the continuations of the
  // operation in progress wait here, one slot each, instead of nesting
  // inside one another's closures.
  UserEnv::AskReplyFn ask_reply_;                  // answers the ask in service
  UniqueFn<void(CapSel, uint64_t)> derive_done_;   // DeriveExtent's continuation
  SelList revoking_;                               // RevokeHanded's selectors...
  size_t revoke_next_ = 0;                         // ...the next one to revoke...
  InlineFn revoke_done_;                           // ...and what runs after the last
  uint64_t next_fid_ = 1;
  FsServiceStats fs_stats_;
};

}  // namespace semperos

#endif  // SEMPEROS_FS_SERVICE_H_
