// Tests for the Storage Engine: file service with DPU cache, host file
// client paths (Linux baseline vs DPU offload), persist modes, the
// remote-request protocol, traffic director routing, UDF translation,
// and end-to-end remote serving (the DDS data path).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/runtime/metrics.h"
#include "core/runtime/platform.h"
#include "core/storage/storage_engine.h"
#include "hw/calibration.h"
#include "kern/textgen.h"

namespace dpdpu::se {
namespace {

// Single-platform fixture for local storage paths.
struct SeFixture {
  SeFixture() : net(&sim), platform(&sim, &net) {}

  sim::Simulator sim;
  netsub::Network net;
  rt::Platform platform;

  FileService& files() { return platform.storage().file_service(); }
  HostFileClient& host() { return platform.storage().host_client(); }
};

TEST(FileServiceTest, CreateWriteReadThroughService) {
  SeFixture f;
  fssub::FileId file = 0;
  bool created = false;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) {
    ASSERT_TRUE(id.ok());
    file = *id;
    created = true;
  });
  f.sim.Run();
  ASSERT_TRUE(created);

  Buffer data = kern::GenerateText(50000, {});
  bool wrote = false;
  f.files().WriteAsync(file, 0, data, PersistMode::kWriteThrough,
                       [&](Status s) {
                         ASSERT_TRUE(s.ok());
                         wrote = true;
                       });
  f.sim.Run();
  ASSERT_TRUE(wrote);

  Buffer got;
  f.files().ReadAsync(file, 0, uint32_t(data.size()),
                      [&](Result<Buffer> d) {
                        ASSERT_TRUE(d.ok());
                        got = std::move(d).value();
                      });
  f.sim.Run();
  EXPECT_EQ(got, data);
}

TEST(FileServiceTest, SecondReadHitsDpuCache) {
  SeFixture f;
  fssub::FileId file = 0;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) { file = *id; });
  f.sim.Run();
  Buffer data = kern::GenerateRandomBytes(64 * 1024, 3);
  f.files().WriteAsync(file, 0, data, PersistMode::kWriteThrough,
                       [](Status) {});
  f.sim.Run();

  // First read misses (SSD), second hits (DPU cache), and is faster.
  sim::SimTime t0 = f.sim.now();
  f.files().ReadAsync(file, 0, 64 * 1024, [](Result<Buffer>) {});
  f.sim.Run();
  sim::SimTime miss_latency = f.sim.now() - t0;

  t0 = f.sim.now();
  Buffer got;
  f.files().ReadAsync(file, 0, 64 * 1024, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  f.sim.Run();
  sim::SimTime hit_latency = f.sim.now() - t0;

  EXPECT_EQ(got, data);
  EXPECT_EQ(f.files().stats().cache_hit_reads, 1u);
  EXPECT_LT(hit_latency * 5, miss_latency)
      << "cache hit must skip the SSD access latency";
}

TEST(FileServiceTest, WriteInvalidatesCache) {
  SeFixture f;
  fssub::FileId file = 0;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) { file = *id; });
  f.sim.Run();
  Buffer v1 = kern::GenerateRandomBytes(8192, 1);
  Buffer v2 = kern::GenerateRandomBytes(8192, 2);
  f.files().WriteAsync(file, 0, v1, PersistMode::kWriteThrough,
                       [](Status) {});
  f.sim.Run();
  f.files().ReadAsync(file, 0, 8192, [](Result<Buffer>) {});  // warm cache
  f.sim.Run();
  f.files().WriteAsync(file, 0, v2, PersistMode::kWriteThrough,
                       [](Status) {});
  f.sim.Run();
  Buffer got;
  f.files().ReadAsync(file, 0, 8192, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(got, v2) << "stale cache page served after overwrite";
}

TEST(FileServiceTest, DpuLogAckIsFasterThanWriteThrough) {
  SeFixture f;
  fssub::FileId file = 0;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) { file = *id; });
  f.sim.Run();
  Buffer data = kern::GenerateRandomBytes(8192, 5);

  sim::SimTime t0 = f.sim.now();
  sim::SimTime through_ack = 0;
  f.files().WriteAsync(file, 0, data, PersistMode::kWriteThrough,
                       [&](Status s) {
                         ASSERT_TRUE(s.ok());
                         through_ack = f.sim.now() - t0;
                       });
  f.sim.Run();

  t0 = f.sim.now();
  sim::SimTime log_ack = 0;
  f.files().WriteAsync(file, 8192, data, PersistMode::kDpuLogAck,
                       [&](Status s) {
                         ASSERT_TRUE(s.ok());
                         log_ack = f.sim.now() - t0;
                       });
  f.sim.Run();

  EXPECT_LT(log_ack, through_ack)
      << "Section 9 fast persistence: log ack must beat the SSD write";
  EXPECT_EQ(f.files().stats().log_acked_writes, 1u);

  // The background SSD write still lands: the data is readable.
  Buffer got;
  f.files().ReadAsync(file, 8192, 8192, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(got, data);
}

TEST(FileServiceTest, DpuLogAckBackgroundWriteTakesFullSsdWriteTime) {
  SeFixture f;
  fssub::FileId file = 0;
  f.files().CreateAsync("t", [&](Result<fssub::FileId> id) { file = *id; });
  f.sim.Run();
  constexpr uint32_t kBytes = 1 << 20;
  Buffer data = kern::GenerateRandomBytes(kBytes, 8);
  sim::SimTime acked_at = 0;
  f.files().WriteAsync(file, 0, data, PersistMode::kDpuLogAck,
                       [&](Status s) {
                         ASSERT_TRUE(s.ok());
                         acked_at = f.sim.now();
                       });
  f.sim.Run();
  // The background SSD write starts at the ack and is the last event:
  // it must hold the device for the whole 1 MB, not a 0-byte write.
  hw::SsdDevice& ssd = f.platform.server().ssd();
  EXPECT_EQ(f.sim.now() - acked_at, ssd.OpTime(/*is_write=*/true, kBytes));
  EXPECT_EQ(f.sim.now() - acked_at, 169'797u);
}

TEST(HostFileClientTest, OffloadPathSavesHostCycles) {
  auto run = [](HostIoPath path) {
    SeFixture f;
    f.host().set_path(path);
    fssub::FileId file = 0;
    f.files().CreateAsync("t",
                          [&](Result<fssub::FileId> id) { file = *id; });
    f.sim.Run();
    Buffer data = kern::GenerateRandomBytes(8192, 1);
    f.files().WriteAsync(file, 0, data, PersistMode::kWriteThrough,
                         [](Status) {});
    f.sim.Run();

    rt::UtilizationProbe probe(&f.platform.server());
    probe.Start();
    int done = 0;
    for (int i = 0; i < 200; ++i) {
      f.host().Read(file, 0, 8192, [&](Result<Buffer> d) {
        EXPECT_TRUE(d.ok());
        ++done;
      });
    }
    f.sim.Run();
    probe.Stop();
    EXPECT_EQ(done, 200);
    return double(probe.host_cores()) * double(probe.window_ns());
  };
  double linux_host_ns = run(HostIoPath::kLinuxBaseline);
  double offload_host_ns = run(HostIoPath::kDpuOffload);
  EXPECT_GT(linux_host_ns, offload_host_ns * 10)
      << "Figure 2: the DPU path frees host storage-stack cycles";
}

// --------------------------------------------------------------------------
// Protocol.
// --------------------------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  RemoteRequest request;
  request.tag = 77;
  request.op = RemoteOp::kWrite;
  request.file = 3;
  request.offset = 4096;
  request.data = Buffer("payload");
  request.flags = kRequestFlagRequiresHost;
  Buffer encoded = EncodeRemoteRequest(request);
  auto parsed = ParseRemoteRequest(encoded.span());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tag, 77u);
  EXPECT_EQ(parsed->op, RemoteOp::kWrite);
  EXPECT_EQ(parsed->file, 3u);
  EXPECT_EQ(parsed->offset, 4096u);
  EXPECT_EQ(parsed->data.ToString(), "payload");
  EXPECT_EQ(parsed->flags, kRequestFlagRequiresHost);
}

TEST(ProtocolTest, MalformedRequestRejected) {
  Buffer junk("xx");
  EXPECT_TRUE(ParseRemoteRequest(junk.span()).status().IsCorruption());
  RemoteRequest request;
  Buffer encoded = EncodeRemoteRequest(request);
  encoded[8] = 99;  // invalid op
  EXPECT_TRUE(ParseRemoteRequest(encoded.span()).status().IsCorruption());
}

TEST(ProtocolTest, ResponseHeaderBytesMatchTheEncoding) {
  RemoteResponse resp;
  resp.tag = 9;
  resp.data = Buffer("payload");
  EXPECT_EQ(EncodeRemoteResponse(resp).size(),
            kRemoteResponseHeaderBytes + resp.data.size());
}

TEST(ProtocolTest, ResponseRoundTrip) {
  RemoteResponse resp;
  resp.tag = 5;
  resp.ok = false;
  resp.data = Buffer("err");
  Buffer encoded = EncodeRemoteResponse(resp);
  auto parsed = ParseRemoteResponse(encoded.span());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tag, 5u);
  EXPECT_FALSE(parsed->ok);
  EXPECT_EQ(parsed->data.ToString(), "err");
}

// --------------------------------------------------------------------------
// Remote serving end to end (two platforms over the fabric).
// --------------------------------------------------------------------------

struct RemoteFixture {
  RemoteFixture() : net(&sim) {
    rt::PlatformOptions server_options;
    server_options.node = 1;
    server = std::make_unique<rt::Platform>(&sim, &net, server_options);
    rt::PlatformOptions client_options;
    client_options.node = 2;
    client = std::make_unique<rt::Platform>(&sim, &net, client_options);
    server->storage().Serve();
  }

  /// Creates a file with `data` on the storage server.
  fssub::FileId Prepare(ByteSpan data) {
    auto file = server->fs().Create("obj");
    DPDPU_CHECK(file.ok());
    DPDPU_CHECK(server->fs().Write(*file, 0, data).ok());
    return *file;
  }

  sim::Simulator sim;
  netsub::Network net;
  std::unique_ptr<rt::Platform> server, client;
};

TEST(RemoteStorageTest, ReadRoundTrip) {
  RemoteFixture f;
  Buffer data = kern::GenerateText(100000, {});
  fssub::FileId file = f.Prepare(data.span());

  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);
  Buffer got;
  int errors = 0;
  rsc.Read(file, 0, uint32_t(data.size()), [&](Result<Buffer> d) {
    if (d.ok()) {
      got = std::move(d).value();
    } else {
      ++errors;
    }
  });
  f.sim.Run();
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(got, data);
  EXPECT_EQ(f.server->storage().director().routed_to_dpu(), 1u);
  EXPECT_EQ(f.server->storage().offload_engine().requests_executed(), 1u);
}

TEST(RemoteStorageTest, WriteThenReadBack) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("seed").span());
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);

  Buffer payload = kern::GenerateRandomBytes(32 * 1024, 9);
  bool wrote = false;
  rsc.Write(file, 0, payload, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  f.sim.Run();
  ASSERT_TRUE(wrote);

  Buffer got;
  rsc.Read(file, 0, 32 * 1024, [&](Result<Buffer> d) {
    ASSERT_TRUE(d.ok());
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(got, payload);
}

TEST(RemoteStorageTest, ManyConcurrentRequestsAllComplete) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(1 << 20, 4);
  fssub::FileId file = f.Prepare(data.span());
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);

  constexpr int kRequests = 100;
  int done = 0;
  for (int i = 0; i < kRequests; ++i) {
    uint64_t offset = uint64_t(i) * 8192;
    rsc.Read(file, offset, 8192, [&, offset](Result<Buffer> d) {
      ASSERT_TRUE(d.ok());
      ASSERT_EQ(d->size(), 8192u);
      EXPECT_EQ(std::memcmp(d->data(), data.data() + offset, 8192), 0);
      ++done;
    });
  }
  f.sim.Run();
  EXPECT_EQ(done, kRequests);
}

TEST(RemoteStorageTest, FlaggedRequestsRouteToHost) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(8192, 2);
  fssub::FileId file = f.Prepare(data.span());
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);

  Buffer got;
  rsc.Read(file, 0, 8192,
           [&](Result<Buffer> d) { got = std::move(d).value(); },
           kRequestFlagRequiresHost);
  f.sim.Run();
  EXPECT_EQ(got, data);
  EXPECT_EQ(f.server->storage().director().routed_to_host(), 1u);
  EXPECT_EQ(f.server->storage().director().routed_to_dpu(), 0u);
}

TEST(RemoteStorageTest, OffloadKeepsHostIdle) {
  // The DDS headline: offloaded remote reads leave the host untouched.
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(1 << 20, 4);
  fssub::FileId file = f.Prepare(data.span());
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);

  rt::UtilizationProbe probe(&f.server->server());
  probe.Start();
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    rsc.Read(file, (uint64_t(i) * 4096) % (1 << 20), 4096,
             [&](Result<Buffer> d) {
               ASSERT_TRUE(d.ok());
               ++done;
             });
  }
  f.sim.Run();
  probe.Stop();
  EXPECT_EQ(done, 200);
  EXPECT_LT(probe.host_cores(), 0.01)
      << "offloaded requests must not consume storage-server host cores";
  EXPECT_GT(probe.dpu_cores(), 0.0);
}

TEST(RemoteStorageTest, CustomHostHandlerReceivesForwards) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("x").span());
  int host_handled = 0;
  f.server->storage().SetHostHandler(
      [&](RemoteRequest, ReplyFn reply) {
        ++host_handled;
        reply(Buffer("from-host"));
      });
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);
  Buffer got;
  rsc.Read(file, 0, 1, [&](Result<Buffer> d) { got = std::move(d).value(); },
           kRequestFlagRequiresHost);
  f.sim.Run();
  EXPECT_EQ(host_handled, 1);
  EXPECT_EQ(got.ToString(), "from-host");
}

TEST(RemoteStorageTest, HostHandlerReplyCrossesPcieBack) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("x").span());
  f.server->storage().SetHostHandler(
      [](RemoteRequest, ReplyFn reply) { reply(Buffer("from-host")); });
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);
  hw::PcieLink& pcie = f.server->server().pcie();
  uint64_t transfers = pcie.transfers();
  uint64_t bytes = pcie.bytes_moved();
  std::string got;
  rsc.Read(file, 0, 1,
           [&](Result<Buffer> d) { got = d.ok() ? d->ToString() : "error"; },
           kRequestFlagRequiresHost);
  f.sim.Run();
  EXPECT_EQ(got, "from-host");
  // The request crosses to the host (64 B of header), and the handler's
  // reply crosses back: 13 B of response header plus 9 B of data.
  EXPECT_EQ(pcie.transfers() - transfers, 2u);
  EXPECT_EQ(pcie.bytes_moved() - bytes, 64u + 22u);
}

TEST(RemoteStorageTest, RequiresHostWriteMovesItsPayloadOverPcie) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("seed").span());
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);
  hw::PcieLink& pcie = f.server->server().pcie();
  uint64_t bytes = pcie.bytes_moved();
  bool wrote = false;
  rsc.Write(file, 0, kern::GenerateRandomBytes(8192, 4),
            [&](Status s) { wrote = s.ok(); }, kRequestFlagRequiresHost);
  f.sim.Run();
  ASSERT_TRUE(wrote);
  // 8 KB of payload plus the 64 B request header to the host, then the
  // 13 B data-less response back.
  EXPECT_EQ(pcie.bytes_moved() - bytes, 8192u + 64u + 13u);
}

TEST(RemoteStorageTest, UdfRewritingTheTagStillAnswersTheClient) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(8192, 17);
  fssub::FileId file = f.Prepare(data.span());
  // A UDF that builds a fresh request (tag 0) instead of editing a copy.
  f.server->storage().offload_engine().SetUdf(
      [](const RemoteRequest& in) -> Result<RemoteRequest> {
        RemoteRequest out;
        out.file = in.file;
        out.offset = in.offset;
        out.length = in.length;
        return out;
      });
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);
  bool served = false;
  rsc.Read(file, 0, 4096, [&](Result<Buffer> d) {
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(std::memcmp(d->data(), data.data(), 4096), 0);
    served = true;
  });
  f.sim.Run();
  EXPECT_TRUE(served);
  EXPECT_EQ(rsc.requests_outstanding(), 0u);
}

// Drives the server with hand-built requests over a raw socket and reads
// the responses off the wire, so the version stamp itself is checked.
TEST(RemoteStorageTest, VersionStampsOnTheWire) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer(size_t{8192}).span());
  ne::NeSocket* socket = f.client->network().Connect(1, kStorageListenPort);
  std::vector<RemoteResponse> responses;
  ne::FlowReader reader(socket, [&](ByteSpan message) {
    Result<RemoteResponse> resp = ParseRemoteResponse(message);
    ASSERT_TRUE(resp.ok());
    responses.push_back(std::move(resp).value());
  });
  auto send = [&](uint64_t tag, RemoteOp op, uint8_t flags,
                  uint64_t version) {
    RemoteRequest request;
    request.tag = tag;
    request.op = op;
    request.file = file;
    request.flags = flags;
    request.version = version;
    if (op == RemoteOp::kWrite) {
      request.data = kern::GenerateRandomBytes(4096, tag);
    } else {
      request.length = 4096;
    }
    ne::SendRecord(socket, EncodeRemoteRequest(request).span());
    f.sim.Run();
  };
  send(11, RemoteOp::kWrite, kRequestFlagVersioned, 5);  // admitted
  send(12, RemoteOp::kRead, kRequestFlagVersioned, 0);
  send(13, RemoteOp::kWrite, kRequestFlagVersioned, 3);  // stale
  send(14, RemoteOp::kRead, 0, 0);                       // unversioned
  ASSERT_EQ(responses.size(), 4u);
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].tag, 11 + i);
    EXPECT_TRUE(responses[i].ok);
  }
  EXPECT_FALSE(responses[0].has_version)
      << "an admitted write's ack carries no version";
  EXPECT_TRUE(responses[1].has_version);
  EXPECT_EQ(responses[1].version, 5u);
  EXPECT_EQ(responses[1].data, kern::GenerateRandomBytes(4096, 11));
  EXPECT_TRUE(responses[2].has_version) << "a stale ack names the winner";
  EXPECT_EQ(responses[2].version, 5u);
  EXPECT_FALSE(responses[3].has_version);
  EXPECT_EQ(responses[3].data, responses[1].data)
      << "the stale write must not be applied";
  EXPECT_EQ(f.server->storage().versions().Lookup(file, 0), 5u);
}

TEST(RemoteStorageTest, ClientMayDestroyItselfInItsCallback) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(16384, 3);
  fssub::FileId file = f.Prepare(data.span());
  auto rsc = std::make_unique<RemoteStorageClient>(&f.client->network(), 1,
                                                   kStorageListenPort);
  int first = 0, second = 0;
  // The 4 KB read finishes first; its callback destroys the client while
  // the 8 KB read is still in flight. That response then reaches a
  // socket whose reader is gone and is dropped.
  rsc->Read(file, 0, 4096, [&](Result<Buffer> d) {
    EXPECT_TRUE(d.ok());
    ++first;
    rsc.reset();
  });
  rsc->Read(file, 4096, 8192, [&](Result<Buffer>) { ++second; });
  f.sim.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  EXPECT_EQ(rsc, nullptr);
  EXPECT_EQ(f.server->storage().offload_engine().requests_executed(), 2u);
}

TEST(RemoteStorageTest, UdfTranslatesRequests) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(16384, 6);
  fssub::FileId file = f.Prepare(data.span());
  // UDF: redirect every read to offset 8192 (e.g. translating an
  // application key to a physical location).
  f.server->storage().offload_engine().SetUdf(
      [](const RemoteRequest& in) -> Result<RemoteRequest> {
        RemoteRequest out = in;
        out.offset = 8192;
        return out;
      });
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);
  Buffer got;
  rsc.Read(file, 0, 4096, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(std::memcmp(got.data(), data.data() + 8192, 4096), 0);
}

// --------------------------------------------------------------------------
// Traffic director policy (partial offload, DDS question Q2).
// --------------------------------------------------------------------------

TEST(TrafficDirectorTest, DefaultPolicySplitsOnRequiresHostFlag) {
  SeFixture f;
  TrafficDirector& director = f.platform.storage().director();
  RemoteRequest offloadable;
  RemoteRequest host_only;
  host_only.flags = kRequestFlagRequiresHost;
  EXPECT_EQ(director.Classify(offloadable), TrafficDirector::Route::kDpu);
  EXPECT_EQ(director.Classify(host_only), TrafficDirector::Route::kHost);
  EXPECT_EQ(director.Classify(offloadable), TrafficDirector::Route::kDpu);
  EXPECT_EQ(director.routed_to_dpu(), 2u);
  EXPECT_EQ(director.routed_to_host(), 1u);
}

TEST(TrafficDirectorTest, CustomClassifierOverridesFlag) {
  SeFixture f;
  TrafficDirector& director = f.platform.storage().director();
  // Policy by offset range instead of by flag: only the first 1 MB of a
  // file is DPU-resident (e.g. a hot index prefix).
  director.SetClassifier([](const RemoteRequest& request) {
    return request.offset < (1u << 20);
  });
  RemoteRequest low, high;
  low.offset = 4096;
  low.flags = kRequestFlagRequiresHost;  // custom policy ignores flags
  high.offset = 2u << 20;
  EXPECT_EQ(director.Classify(low), TrafficDirector::Route::kDpu);
  EXPECT_EQ(director.Classify(high), TrafficDirector::Route::kHost);
  EXPECT_EQ(director.routed_to_dpu(), 1u);
  EXPECT_EQ(director.routed_to_host(), 1u);
}

TEST(TrafficDirectorTest, ClassifyChargesTheDpuNotTheHost) {
  SeFixture f;
  TrafficDirector& director = f.platform.storage().director();
  rt::UtilizationProbe probe(&f.platform.server());
  probe.Start();
  RemoteRequest request;
  for (int i = 0; i < 1000; ++i) director.Classify(request);
  f.sim.Run();
  probe.Stop();
  EXPECT_GT(probe.dpu_cores(), 0.0)
      << "the per-packet decision must cost DPU cycles";
  EXPECT_EQ(probe.host_cores(), 0.0)
      << "classification must not touch host cores";
}

TEST(RemoteStorageTest, PartialOffloadSplitMatchesDirectorCounters) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(256 * 1024, 11);
  fssub::FileId file = f.Prepare(data.span());
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);

  // 70/30 offloadable/host split, deterministic pattern.
  constexpr int kRequests = 100;
  int done = 0, flagged = 0;
  for (int i = 0; i < kRequests; ++i) {
    uint8_t flags = (i % 10) < 3 ? kRequestFlagRequiresHost : 0;
    flagged += flags ? 1 : 0;
    rsc.Read(file, uint64_t(i) * 2048, 2048,
             [&](Result<Buffer> d) {
               ASSERT_TRUE(d.ok());
               ++done;
             },
             flags);
  }
  f.sim.Run();
  EXPECT_EQ(done, kRequests);
  TrafficDirector& director = f.server->storage().director();
  EXPECT_EQ(director.routed_to_host(), uint64_t(flagged));
  EXPECT_EQ(director.routed_to_dpu(), uint64_t(kRequests - flagged));
  // Every DPU-routed request executed on the offload engine; host-routed
  // ones did not.
  EXPECT_EQ(f.server->storage().offload_engine().requests_executed(),
            uint64_t(kRequests - flagged));
}

// --------------------------------------------------------------------------
// Offload engine (UDF translation edge cases, persist mode).
// --------------------------------------------------------------------------

TEST(RemoteStorageTest, UdfFailureProducesErrorResponse) {
  RemoteFixture f;
  Buffer data = kern::GenerateRandomBytes(8192, 13);
  fssub::FileId file = f.Prepare(data.span());
  f.server->storage().offload_engine().SetUdf(
      [](const RemoteRequest& in) -> Result<RemoteRequest> {
        if (in.offset == 0) {
          return Status::InvalidArgument("UDF rejects offset 0");
        }
        return in;
      });
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);

  bool rejected = false, served = false;
  rsc.Read(file, 0, 4096, [&](Result<Buffer> d) {
    EXPECT_FALSE(d.ok()) << "UDF rejection must reach the client as !ok";
    rejected = true;
  });
  rsc.Read(file, 4096, 4096, [&](Result<Buffer> d) {
    EXPECT_TRUE(d.ok());
    served = true;
  });
  f.sim.Run();
  EXPECT_TRUE(rejected);
  EXPECT_TRUE(served);
  // Both requests reached the engine; failure still counts as executed.
  EXPECT_EQ(f.server->storage().offload_engine().requests_executed(), 2u);
}

TEST(RemoteStorageTest, OffloadEnginePersistModeAppliesToRemoteWrites) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("seed").span());
  f.server->storage().offload_engine().SetPersistMode(
      PersistMode::kDpuLogAck);
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);

  Buffer payload = kern::GenerateRandomBytes(8192, 21);
  bool wrote = false;
  rsc.Write(file, 0, payload, [&](Status s) {
    ASSERT_TRUE(s.ok());
    wrote = true;
  });
  f.sim.Run();
  ASSERT_TRUE(wrote);
  EXPECT_EQ(f.server->storage().file_service().stats().log_acked_writes, 1u)
      << "offloaded writes must honor the engine's persist mode";

  Buffer got;
  rsc.Read(file, 0, 8192, [&](Result<Buffer> d) {
    got = std::move(d).value();
  });
  f.sim.Run();
  EXPECT_EQ(got, payload);
}

TEST(RemoteStorageTest, ReadBeyondFileFailsCleanly) {
  RemoteFixture f;
  fssub::FileId file = f.Prepare(Buffer("tiny").span());
  RemoteStorageClient rsc(&f.client->network(), 1, kStorageListenPort);
  bool got_short = false;
  // Reads past EOF return the short prefix (empty here).
  rsc.Read(file, 100, 50, [&](Result<Buffer> d) {
    ASSERT_TRUE(d.ok());
    EXPECT_TRUE(d->empty());
    got_short = true;
  });
  // Unknown file id errors.
  bool got_error = false;
  rsc.Read(999, 0, 10, [&](Result<Buffer> d) {
    EXPECT_FALSE(d.ok());
    got_error = true;
  });
  f.sim.Run();
  EXPECT_TRUE(got_short);
  EXPECT_TRUE(got_error);
}

// --------------------------------------------------------------------------
// Malformed input: every mutation of a valid message must parse to a
// value or a Status, never crash (the sanitizer builds check "never").
// --------------------------------------------------------------------------

RemoteRequest RandomRequest(Pcg32& rng) {
  RemoteRequest request;
  request.tag = rng.Next64();
  request.op = rng.NextBool(0.5) ? RemoteOp::kRead : RemoteOp::kWrite;
  request.flags = uint8_t(rng.NextBounded(4));
  request.version = rng.Next64();
  request.file = rng.Next();
  request.offset = rng.Next64();
  request.length = rng.Next();
  request.data = kern::GenerateRandomBytes(rng.NextBounded(64), rng.Next());
  return request;
}

RemoteResponse RandomResponse(Pcg32& rng) {
  RemoteResponse response;
  response.tag = rng.Next64();
  response.ok = rng.NextBool(0.5);
  response.has_version = rng.NextBool(0.5);
  response.version = rng.Next64();
  response.data = kern::GenerateRandomBytes(rng.NextBounded(64), rng.Next());
  return response;
}

/// Offset of the data-length field in an encoded message.
size_t RequestLengthField(const RemoteRequest& r) {
  return 8 + 1 + 1 + ((r.flags & kRequestFlagVersioned) ? 8 : 0) + 4 + 8 +
         4;
}
size_t ResponseLengthField(const RemoteResponse& r) {
  return 8 + 1 + (r.has_version ? 8 : 0);
}

void SetU32(Buffer& b, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = uint8_t(v >> (8 * i));
}

TEST(ProtocolFuzzTest, TruncationIsCorruptionAtEveryLength) {
  Pcg32 rng(101);
  for (int i = 0; i < 40; ++i) {
    Buffer request = EncodeRemoteRequest(RandomRequest(rng));
    ASSERT_TRUE(ParseRemoteRequest(request.span()).ok());
    for (size_t n = 0; n < request.size(); ++n) {
      EXPECT_TRUE(ParseRemoteRequest(request.span().first(n))
                      .status()
                      .IsCorruption())
          << "request cut at " << n << " of " << request.size();
    }
    Buffer response = EncodeRemoteResponse(RandomResponse(rng));
    ASSERT_TRUE(ParseRemoteResponse(response.span()).ok());
    for (size_t n = 0; n < response.size(); ++n) {
      EXPECT_TRUE(ParseRemoteResponse(response.span().first(n))
                      .status()
                      .IsCorruption())
          << "response cut at " << n << " of " << response.size();
    }
  }
}

TEST(ProtocolFuzzTest, BitFlipsParseOrFailCleanly) {
  Pcg32 rng(202);
  int failed = 0, parsed = 0;
  for (int i = 0; i < 2000; ++i) {
    Buffer request = EncodeRemoteRequest(RandomRequest(rng));
    Buffer response = EncodeRemoteResponse(RandomResponse(rng));
    for (Buffer* b : {&request, &response}) {
      int flips = 1 + int(rng.NextBounded(4));
      for (int k = 0; k < flips; ++k) {
        uint32_t bit = rng.NextBounded(uint32_t(b->size() * 8));
        (*b)[bit / 8] ^= uint8_t(1u << (bit % 8));
      }
    }
    Result<RemoteRequest> req = ParseRemoteRequest(request.span());
    Result<RemoteResponse> resp = ParseRemoteResponse(response.span());
    for (const Status& s : {req.status(), resp.status()}) {
      if (s.ok()) {
        ++parsed;
      } else {
        EXPECT_TRUE(s.IsCorruption()) << s;
        ++failed;
      }
    }
    if (req.ok()) {
      EXPECT_LE(req->data.size(), request.size());
    }
    if (resp.ok()) {
      EXPECT_LE(resp->data.size(), response.size());
    }
  }
  // Both outcomes occur: flips in payload bytes parse, flips in the
  // length and flag fields mostly do not.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(failed, 0);
}

TEST(ProtocolFuzzTest, CorruptedLengthFieldsNeverOverread) {
  Pcg32 rng(303);
  for (int i = 0; i < 500; ++i) {
    RemoteRequest request = RandomRequest(rng);
    RemoteResponse response = RandomResponse(rng);
    Buffer req_bytes = EncodeRemoteRequest(request);
    Buffer resp_bytes = EncodeRemoteResponse(response);
    const uint32_t candidates[] = {
        0, 0xFFFFFFFFu, 0x80000000u, rng.Next(),
        uint32_t(request.data.size() + 1 + rng.NextBounded(8)),
        uint32_t(rng.NextBounded(uint32_t(request.data.size()) + 1))};
    for (uint32_t len : candidates) {
      SetU32(req_bytes, RequestLengthField(request), len);
      Result<RemoteRequest> req = ParseRemoteRequest(req_bytes.span());
      ASSERT_EQ(req.ok(), len <= request.data.size()) << len;
      if (req.ok()) {
        EXPECT_EQ(req->data.size(), len);
      } else {
        EXPECT_TRUE(req.status().IsCorruption());
      }
      SetU32(resp_bytes, ResponseLengthField(response), len);
      Result<RemoteResponse> resp = ParseRemoteResponse(resp_bytes.span());
      ASSERT_EQ(resp.ok(), len <= response.data.size()) << len;
      if (resp.ok()) {
        EXPECT_EQ(resp->data.size(), len);
      } else {
        EXPECT_TRUE(resp.status().IsCorruption());
      }
    }
  }
}

}  // namespace
}  // namespace dpdpu::se
