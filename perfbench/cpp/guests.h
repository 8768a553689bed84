// Guest programs of the echo-recovery workload: a TCP echo pair whose
// client checks every echoed byte against the pattern it sent.
//
// The byte pattern is a function of a seed the client receives at
// launch, so the bytes on the wire are a generated input of the run.
#pragma once

#include <algorithm>

#include "net/addr.h"
#include "os/program.h"
#include "util/types.h"

namespace perfbench {

using namespace zapc;

/// Accepts one connection and echoes until EOF.
class EchoServer final : public os::Program {
 public:
  EchoServer() = default;
  EchoServer(u16 port, u64 footprint) : port_(port), footprint_(footprint) {}

  const char* kind() const override { return "perfbench.echo_server"; }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0: {
        sys.region("workspace", footprint_);
        auto fd = sys.socket(net::Proto::TCP);
        if (!fd) return StepResult::exit(1);
        lfd_ = fd.value();
        if (!sys.bind(lfd_, net::SockAddr{net::kAnyAddr, port_}) ||
            !sys.listen(lfd_, 4)) {
          return StepResult::exit(1);
        }
        pc_ = 1;
        return StepResult::yield();
      }
      case 1: {
        auto c = sys.accept(lfd_, nullptr);
        if (!c) {
          if (c.err() == Err::WOULD_BLOCK) {
            return StepResult::block(os::WaitSpec::on_fd(lfd_));
          }
          return StepResult::exit(1);
        }
        cfd_ = c.value();
        pc_ = 2;
        return StepResult::yield();
      }
      case 2: {
        auto r = sys.recv(cfd_, 4096, 0);
        if (!r) {
          if (r.err() == Err::WOULD_BLOCK) {
            return StepResult::block(os::WaitSpec::on_fd(cfd_));
          }
          return StepResult::exit(1);
        }
        if (r.value().eof) {
          (void)sys.close(cfd_);
          (void)sys.close(lfd_);
          return StepResult::exit(0);
        }
        pending_ = std::move(r.value().data);
        pc_ = 3;
        return StepResult::yield();
      }
      case 3: {
        if (pending_.empty()) {
          pc_ = 2;
          return StepResult::yield();
        }
        auto w = sys.send(cfd_, pending_, 0);
        if (!w) {
          if (w.err() == Err::WOULD_BLOCK) {
            return StepResult::block(os::WaitSpec::on_fd(cfd_));
          }
          return StepResult::exit(1);
        }
        pending_.erase(pending_.begin(),
                       pending_.begin() + static_cast<long>(w.value()));
        return StepResult::yield();
      }
      default:
        return StepResult::exit(2);
    }
  }

  void save(Encoder& e) const override {
    e.put_u16(port_);
    e.put_u64(footprint_);
    e.put_u32(pc_);
    e.put_i32(lfd_);
    e.put_i32(cfd_);
    e.put_bytes(pending_);
  }
  void load(Decoder& d) override {
    port_ = d.u16_().value_or(0);
    footprint_ = d.u64_().value_or(0);
    pc_ = d.u32_().value_or(0);
    lfd_ = d.i32_().value_or(-1);
    cfd_ = d.i32_().value_or(-1);
    pending_ = d.bytes_().value_or({});
  }

 private:
  u16 port_ = 0;
  u64 footprint_ = 0;
  u32 pc_ = 0;
  i32 lfd_ = -1;
  i32 cfd_ = -1;
  Bytes pending_;
};

/// Streams `total` pattern bytes to the server and verifies the echo
/// byte for byte; exits 0 only when every byte came back intact.
class EchoClient final : public os::Program {
 public:
  EchoClient() = default;
  EchoClient(net::SockAddr server, u32 total, u32 pattern, u64 footprint)
      : server_(server), total_(total), pattern_(pattern),
        footprint_(footprint) {}

  const char* kind() const override { return "perfbench.echo_client"; }

  u8 byte_at(u32 i) const {
    return static_cast<u8>(((i * 131u) ^ pattern_) + (i >> 11));
  }

  os::StepResult step(os::Syscalls& sys) override {
    using os::StepResult;
    switch (pc_) {
      case 0: {
        sys.region("workspace", footprint_);
        auto fd = sys.socket(net::Proto::TCP);
        if (!fd) return StepResult::exit(1);
        fd_ = fd.value();
        Status st = sys.connect(fd_, server_);
        if (!st.is_ok() && st.err() != Err::IN_PROGRESS) {
          return StepResult::exit(1);
        }
        pc_ = 1;
        return StepResult::yield();
      }
      case 1: {
        u32 ev = sys.poll(fd_);
        if ((ev & net::POLLERR) != 0) return StepResult::exit(1);
        if ((ev & net::POLLOUT) == 0) {
          return StepResult::block(os::WaitSpec::on_fd(fd_));
        }
        pc_ = 2;
        return StepResult::yield();
      }
      case 2: {
        if (sent_ < total_) {
          u32 n = std::min<u32>(total_ - sent_, 2048);
          Bytes chunk(n);
          for (u32 i = 0; i < n; ++i) chunk[i] = byte_at(sent_ + i);
          auto w = sys.send(fd_, chunk, 0);
          if (w.is_ok()) sent_ += static_cast<u32>(w.value());
        }
        auto r = sys.recv(fd_, 4096, 0);
        if (r.is_ok() && !r.value().eof) {
          for (u8 b : r.value().data) {
            if (b != byte_at(rcvd_)) return StepResult::exit(3);
            ++rcvd_;
          }
        }
        if (rcvd_ == total_) {
          (void)sys.close(fd_);
          return StepResult::exit(0);
        }
        if (r.err() == Err::WOULD_BLOCK && sent_ == total_) {
          return StepResult::block(os::WaitSpec::on_fd(fd_));
        }
        return StepResult::yield(5);
      }
      default:
        return StepResult::exit(2);
    }
  }

  void save(Encoder& e) const override {
    e.put_u32(server_.ip.v);
    e.put_u16(server_.port);
    e.put_u32(total_);
    e.put_u32(pattern_);
    e.put_u64(footprint_);
    e.put_u32(pc_);
    e.put_i32(fd_);
    e.put_u32(sent_);
    e.put_u32(rcvd_);
  }
  void load(Decoder& d) override {
    server_.ip.v = d.u32_().value_or(0);
    server_.port = d.u16_().value_or(0);
    total_ = d.u32_().value_or(0);
    pattern_ = d.u32_().value_or(0);
    footprint_ = d.u64_().value_or(0);
    pc_ = d.u32_().value_or(0);
    fd_ = d.i32_().value_or(-1);
    sent_ = d.u32_().value_or(0);
    rcvd_ = d.u32_().value_or(0);
  }

  u32 received() const { return rcvd_; }

 private:
  net::SockAddr server_;
  u32 total_ = 0;
  u32 pattern_ = 0;
  u64 footprint_ = 0;
  u32 pc_ = 0;
  i32 fd_ = -1;
  u32 sent_ = 0;
  u32 rcvd_ = 0;
};

}  // namespace perfbench
