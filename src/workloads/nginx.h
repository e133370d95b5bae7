// Nginx webserver benchmark programs (paper §5.3.3).
//
// "We stressed Nginx similar to the Apache ab benchmark by introducing PEs
// that resemble a network interface. These PEs constantly send out requests
// to our webserver processes running on separate PEs. These PEs replay the
// trace upon receiving a request and send the response back."
//
// NginxServer runs on a user PE: it is an m3fs client that, per incoming
// request, replays the request-handling trace (stat + open + read + close +
// compute) and then responds. LoadGen runs on a load-generator PE and keeps
// a small pipeline of outstanding requests to one server (closed loop).
//
// The open-loop traffic harness (src/traffic) reuses NginxServer and the
// request/response wire format with other per-request traces (the postmark
// mail transaction), so the server also replays write and unlink ops.
#ifndef SEMPEROS_WORKLOADS_NGINX_H_
#define SEMPEROS_WORKLOADS_NGINX_H_

#include <memory>
#include <string>

#include "base/ring.h"
#include "core/timing.h"
#include "core/userlib.h"
#include "fs/protocol.h"
#include "pe/pe.h"
#include "trace/trace.h"

namespace semperos {

struct NginxRequestMsg : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kNginxRequest;
  NginxRequestMsg() : MsgBody(kKind) {}

  uint64_t seq = 0;
  uint32_t WireSize() const override { return 128; }  // HTTP GET
};

struct NginxResponseMsg : MsgBody {
  static constexpr MsgKind kKind = MsgKind::kNginxResponse;
  NginxResponseMsg() : MsgBody(kKind) {}

  uint64_t seq = 0;
  uint32_t WireSize() const override { return 256; }  // headers; body via "NIC"
};

// Endpoint on the server PE where load generators deliver requests.
inline constexpr EpId kNginxServerRecvEp = 5;

class NginxServer : public Program {
 public:
  NginxServer(Trace request_trace, NodeId kernel_node, const TimingModel& timing,
              std::string service_name = "m3fs");

  void Setup() override;
  void Start() override;

  uint64_t served() const { return served_; }

 private:
  void Pump();
  // Replays op `idx` of the request trace for the request in service
  // (current_), then continues with the next op.
  void RunOp(size_t idx);
  void FinishRequest();

  struct OpenState {
    uint64_t fid = 0;
    CapSel extent_sel = kInvalidSel;
    uint64_t extent_len = 0;
    uint32_t handed = 0;
  };

  // Requests queue with their DTU arrival time: the serve span starts at
  // arrival, so time spent waiting behind the serial server loop shows up
  // as kServe self time in the critical-path breakdown.
  struct Pending {
    Message msg;
    Cycles arrival = 0;
  };

  Trace request_trace_;
  NodeId kernel_node_;
  TimingModel t_;
  std::string service_name_;
  std::unique_ptr<UserEnv> env_;
  CapSel session_sel_ = kInvalidSel;
  Ring<Pending> pending_;
  bool busy_ = false;
  Message current_;  // the request in service (one at a time)
  OpenState open_;
  uint64_t served_ = 0;
  // Observability: the open serve span (traced requests only).
  uint64_t serve_trace_ = 0;
  uint64_t serve_span_ = 0;
  uint64_t serve_parent_ = 0;
  Cycles serve_start_ = 0;
};

class LoadGen : public Program {
 public:
  // Keeps `pipeline` requests outstanding towards the server on
  // `server_node` (ab-style closed loop).
  LoadGen(NodeId server_node, uint32_t pipeline = 2);

  void Setup() override;
  void Start() override;

  uint64_t completed() const { return completed_; }

 private:
  void SendOne();

  NodeId server_node_;
  uint32_t pipeline_;
  uint64_t next_seq_ = 1;
  uint64_t completed_ = 0;
};

}  // namespace semperos

#endif  // SEMPEROS_WORKLOADS_NGINX_H_
