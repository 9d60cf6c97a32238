#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "rdma/fabric.h"
#include "rdma/rpc.h"
#include "sim/cpu_throttle.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"

namespace nova {
namespace {

TEST(BlockStoreTest, AppendReadDelete) {
  BlockStore store;
  uint64_t off0 = store.Append(1, "hello");
  uint64_t off1 = store.Append(1, "world");
  EXPECT_EQ(off0, 0u);
  EXPECT_EQ(off1, 5u);
  std::string out;
  ASSERT_TRUE(store.Read(1, 0, 10, &out).ok());
  EXPECT_EQ(out, "helloworld");
  ASSERT_TRUE(store.Read(1, 5, 5, &out).ok());
  EXPECT_EQ(out, "world");
  EXPECT_TRUE(store.Read(1, 6, 5, &out).IsInvalidArgument());
  EXPECT_TRUE(store.Read(2, 0, 1, &out).IsNotFound());
  EXPECT_EQ(store.FileSize(1), 10u);
  EXPECT_TRUE(store.Exists(1));
  EXPECT_EQ(store.TotalBytes(), 10u);
  ASSERT_TRUE(store.Delete(1).ok());
  EXPECT_FALSE(store.Exists(1));
  EXPECT_TRUE(store.Delete(1).IsNotFound());
}

TEST(BlockStoreTest, ListFiles) {
  BlockStore store;
  store.Append(3, "a");
  store.Append(1, "b");
  store.Append(7, "c");
  auto files = store.ListFiles();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], 1u);
  EXPECT_EQ(files[1], 3u);
  EXPECT_EQ(files[2], 7u);
}

TEST(SimulatedDeviceTest, CompletesRequests) {
  DeviceConfig cfg;
  cfg.time_scale = 0;  // no sleeping in unit tests
  SimulatedDevice dev("d0", cfg);
  std::atomic<int> completed{0};
  for (int i = 0; i < 100; i++) {
    dev.Submit(SimulatedDevice::IoKind::kWrite, 1024, i,
               [&] { completed.fetch_add(1); });
  }
  dev.BlockingIo(SimulatedDevice::IoKind::kRead, 4096, 0);
  EXPECT_EQ(completed.load(), 100);  // FIFO: all prior writes done
  EXPECT_EQ(dev.num_writes(), 100u);
  EXPECT_EQ(dev.num_reads(), 1u);
  EXPECT_EQ(dev.bytes_written(), 100u * 1024);
  EXPECT_EQ(dev.bytes_read(), 4096u);
}

TEST(SimulatedDeviceTest, ServiceTimeMatchesModel) {
  DeviceConfig cfg;
  cfg.bandwidth_bytes_per_sec = 10 * 1024 * 1024;
  cfg.seek_latency_us = 2000;
  cfg.sequential_optimization = false;
  SimulatedDevice dev("d0", cfg);
  auto start = std::chrono::steady_clock::now();
  // 10 writes of 100 KB: 10 * (2 ms + ~9.8 ms) ≈ 118 ms.
  for (int i = 0; i < 9; i++) {
    dev.Submit(SimulatedDevice::IoKind::kWrite, 100 * 1024, i, nullptr);
  }
  dev.BlockingIo(SimulatedDevice::IoKind::kWrite, 100 * 1024, 9);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_GT(elapsed_ms, 90);
  EXPECT_LT(elapsed_ms, 400);
  EXPECT_GT(dev.busy_us(), 100000u);
}

TEST(SimulatedDeviceTest, SequentialWritesSkipSeek) {
  DeviceConfig cfg;
  cfg.bandwidth_bytes_per_sec = 100 * 1024 * 1024;
  cfg.seek_latency_us = 5000;
  SimulatedDevice dev("d0", cfg);
  auto start = std::chrono::steady_clock::now();
  // Same stream id: only the first write seeks. 20 * 1KB ≈ 5 ms + ~0.2 ms.
  for (int i = 0; i < 19; i++) {
    dev.Submit(SimulatedDevice::IoKind::kWrite, 1024, 42, nullptr);
  }
  dev.BlockingIo(SimulatedDevice::IoKind::kWrite, 1024, 42);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_LT(elapsed_ms, 60);  // far less than 20 seeks (100 ms)
}

TEST(SimulatedDeviceTest, QueueDepthVisible) {
  DeviceConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1024 * 1024;
  cfg.seek_latency_us = 20000;  // slow: requests pile up
  cfg.sequential_optimization = false;
  SimulatedDevice dev("d0", cfg);
  for (int i = 0; i < 10; i++) {
    dev.Submit(SimulatedDevice::IoKind::kWrite, 10, i, nullptr);
  }
  EXPECT_GE(dev.QueueDepth(), 5);
  dev.BlockingIo(SimulatedDevice::IoKind::kWrite, 10, 99);
  EXPECT_EQ(dev.QueueDepth(), 0);
}

TEST(SimulatedDeviceTest, FailedDeviceServesInstantly) {
  DeviceConfig cfg;
  cfg.seek_latency_us = 50000;
  SimulatedDevice dev("d0", cfg);
  dev.Fail();
  auto start = std::chrono::steady_clock::now();
  dev.BlockingIo(SimulatedDevice::IoKind::kWrite, 1 << 20, 0);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_LT(elapsed_ms, 20);
  EXPECT_TRUE(dev.failed());
  dev.Repair();
  EXPECT_FALSE(dev.failed());
}

TEST(FabricTest, OneSidedReadWrite) {
  rdma::RdmaFabric fabric;
  fabric.AddNode(0);
  fabric.AddNode(1);
  char region[1024] = {0};
  ASSERT_TRUE(fabric.RegisterMemory(1, 7, region, sizeof(region)).ok());

  // Node 0 writes into node 1's region without node 1 doing anything.
  rdma::RemoteAddr addr{1, 7, 100};
  ASSERT_TRUE(fabric.Write(0, Slice("payload"), addr, false, 0).ok());
  EXPECT_EQ(memcmp(region + 100, "payload", 7), 0);

  char local[8] = {0};
  ASSERT_TRUE(fabric.Read(0, addr, local, 7).ok());
  EXPECT_EQ(memcmp(local, "payload", 7), 0);

  // Bounds are enforced.
  rdma::RemoteAddr bad{1, 7, 1020};
  EXPECT_TRUE(fabric.Write(0, Slice("too-long"), bad, false, 0)
                  .IsInvalidArgument());
  rdma::RemoteAddr unknown{1, 99, 0};
  EXPECT_TRUE(fabric.Read(0, unknown, local, 1).IsInvalidArgument());
}

TEST(FabricTest, WriteWithImmediateNotifies) {
  rdma::RdmaFabric fabric;
  fabric.AddNode(0);
  fabric.AddNode(1);
  char region[64];
  fabric.RegisterMemory(1, 1, region, sizeof(region));
  ASSERT_TRUE(
      fabric.Write(0, Slice("x"), rdma::RemoteAddr{1, 1, 0}, true, 1234)
          .ok());
  rdma::InboundMessage msg;
  ASSERT_TRUE(fabric.PollInbound(1, &msg));
  EXPECT_EQ(msg.kind, rdma::InboundMessage::Kind::kWriteImm);
  EXPECT_EQ(msg.imm, 1234u);
  EXPECT_EQ(msg.src, 0);
  EXPECT_FALSE(fabric.PollInbound(1, &msg));
}

TEST(FabricTest, SendDelivers) {
  rdma::RdmaFabric fabric;
  fabric.AddNode(0);
  fabric.AddNode(1);
  ASSERT_TRUE(fabric.Send(0, 1, "hello rpc").ok());
  rdma::InboundMessage msg;
  ASSERT_TRUE(fabric.PollInbound(1, &msg));
  EXPECT_EQ(msg.kind, rdma::InboundMessage::Kind::kSend);
  EXPECT_EQ(msg.payload, "hello rpc");
}

TEST(FabricTest, DeadNodeUnavailable) {
  rdma::RdmaFabric fabric;
  fabric.AddNode(0);
  fabric.AddNode(1);
  char region[64];
  fabric.RegisterMemory(1, 1, region, sizeof(region));
  fabric.RemoveNode(1);
  EXPECT_TRUE(fabric.Send(0, 1, "x").IsUnavailable());
  EXPECT_TRUE(fabric.Write(0, Slice("x"), rdma::RemoteAddr{1, 1, 0}, false, 0)
                  .IsUnavailable());
  char local[1];
  EXPECT_TRUE(fabric.Read(0, rdma::RemoteAddr{1, 1, 0}, local, 1)
                  .IsUnavailable());
  // Revival starts clean: old registrations are gone.
  fabric.AddNode(1);
  EXPECT_TRUE(fabric.Read(0, rdma::RemoteAddr{1, 1, 0}, local, 1)
                  .IsInvalidArgument());
}

// A thread waiting on an empty queue wakes as soon as any of the three
// kinds of message lands; the 10 s bound sits 10x past the 1 s the test
// allows, so a lost wake-up fails it.
TEST(FabricTest, PollInboundWakesOnArrival) {
  using Clock = std::chrono::steady_clock;
  rdma::RdmaFabric fabric;
  fabric.AddNode(0);
  fabric.AddNode(1);
  fabric.AddNode(2);
  char region[64];
  ASSERT_TRUE(fabric.RegisterMemory(1, 1, region, sizeof(region)).ok());
  auto expect_wake = [&](rdma::InboundMessage::Kind kind,
                         const std::function<void()>& deliver) {
    rdma::InboundMessage msg;
    bool got = false;
    Clock::time_point returned;
    std::thread waiter([&] {
      got = fabric.PollInbound(1, &msg, std::chrono::seconds(10));
      returned = Clock::now();
    });
    // Give the waiter time to block: a message queued before it waits
    // would be taken without any wake-up.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Clock::time_point delivered = Clock::now();
    deliver();
    waiter.join();
    EXPECT_TRUE(got);
    EXPECT_EQ(msg.kind, kind);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  returned - delivered)
                  .count(),
              1000);
  };
  expect_wake(rdma::InboundMessage::Kind::kSend,
              [&] { ASSERT_TRUE(fabric.Send(0, 1, "wake").ok()); });
  expect_wake(rdma::InboundMessage::Kind::kWriteImm, [&] {
    ASSERT_TRUE(
        fabric.Write(0, Slice("x"), rdma::RemoteAddr{1, 1, 0}, true, 7).ok());
  });
  expect_wake(rdma::InboundMessage::Kind::kPeerDown,
              [&] { fabric.RemoveNode(2); });

  // Nothing queued: the wait runs out its bound, on a live node and on
  // one that left the fabric alike.
  rdma::InboundMessage msg;
  for (rdma::NodeId node : {1, 2}) {
    Clock::time_point start = Clock::now();
    EXPECT_FALSE(fabric.PollInbound(node, &msg, std::chrono::milliseconds(20)));
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(
                  Clock::now() - start)
                  .count(),
              20);
  }
}

class RpcTest : public testing::Test {
 protected:
  void SetUp() override {
    fabric_.AddNode(0);
    fabric_.AddNode(1);
    client_ = std::make_unique<rdma::RpcEndpoint>(&fabric_, 0, 2, nullptr);
    server_ = std::make_unique<rdma::RpcEndpoint>(&fabric_, 1, 2, nullptr);
  }

  rdma::RdmaFabric fabric_;
  std::unique_ptr<rdma::RpcEndpoint> client_;
  std::unique_ptr<rdma::RpcEndpoint> server_;
};

TEST_F(RpcTest, EchoCall) {
  server_->set_request_handler(
      [this](rdma::NodeId src, uint64_t req_id, const Slice& payload) {
        server_->Reply(src, req_id, "echo:" + payload.ToString());
      });
  client_->set_request_handler([](rdma::NodeId, uint64_t, const Slice&) {});
  server_->Start();
  client_->Start();

  std::string response;
  ASSERT_TRUE(client_->Call(1, "ping", &response).ok());
  EXPECT_EQ(response, "echo:ping");
}

TEST_F(RpcTest, ConcurrentCalls) {
  server_->set_request_handler(
      [this](rdma::NodeId src, uint64_t req_id, const Slice& payload) {
        server_->Reply(src, req_id, payload);
      });
  server_->Start();
  client_->Start();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([this, t, &failures] {
      for (int i = 0; i < 50; i++) {
        std::string req = "t" + std::to_string(t) + "-" + std::to_string(i);
        std::string resp;
        if (!client_->Call(1, req, &resp).ok() || resp != req) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(RpcTest, TokenCompletion) {
  // Server completes the token only after the imm write lands, emulating
  // the Figure-10 append flow.
  server_->set_write_imm_handler([this](rdma::NodeId src, uint32_t imm) {
    // imm carries the low bits of the client's token in this test.
    server_->CompleteToken(src, imm, "flushed");
  });
  server_->set_request_handler([](rdma::NodeId, uint64_t, const Slice&) {});
  server_->Start();
  client_->Start();

  char region[256];
  fabric_.RegisterMemory(1, 3, region, sizeof(region));

  rdma::Future completion;
  uint64_t token = client_->AllocToken(1, &completion);
  ASSERT_LT(token, 1u << 31);  // fits in imm for the test
  ASSERT_TRUE(fabric_
                  .Write(0, Slice("block-bytes"), rdma::RemoteAddr{1, 3, 0},
                         true, static_cast<uint32_t>(token))
                  .ok());
  std::string payload;
  ASSERT_TRUE(completion.Wait(&payload).ok());
  EXPECT_EQ(payload, "flushed");
  EXPECT_EQ(memcmp(region, "block-bytes", 11), 0);
}

TEST_F(RpcTest, CallToDeadNodeFailsFast) {
  client_->Start();
  fabric_.RemoveNode(1);
  std::string response;
  EXPECT_TRUE(client_->Call(1, "ping", &response).IsUnavailable());
}

TEST_F(RpcTest, CallTimesOut) {
  // Server alive but never replies.
  server_->set_request_handler([](rdma::NodeId, uint64_t, const Slice&) {});
  server_->Start();
  client_->Start();
  std::string response;
  auto start = std::chrono::steady_clock::now();
  Status s = client_->Call(1, "ping", &response, 200);
  // Timeouts are typed Unavailable so a wedged StoC is handled like a
  // dead one (ISSUE 9 satellite).
  EXPECT_TRUE(s.IsUnavailable());
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  EXPECT_GE(ms, 180);
}

TEST(CpuThrottleTest, LimitsRate) {
  // 100k us/sec with 10k burst: consuming 60k us must take >= ~0.4 s.
  sim::CpuThrottle throttle(100000, 10000);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 60; i++) {
    throttle.Charge(1000);
  }
  double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(sec, 0.35);
  EXPECT_GT(throttle.Utilization(), 0.5);
}

TEST(CpuThrottleTest, TryChargeNonBlocking) {
  sim::CpuThrottle throttle(1000, 500);
  EXPECT_TRUE(throttle.TryCharge(400));
  EXPECT_FALSE(throttle.TryCharge(400));  // bucket nearly empty
}

TEST(CpuThrottleTest, UnlimitedNeverBlocks) {
  auto* t = sim::CpuThrottle::Unlimited();
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; i++) {
    t->Charge(1e6);
  }
  double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(sec, 0.5);
}

}  // namespace
}  // namespace nova
