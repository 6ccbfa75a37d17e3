#include "api/request_json.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "engine/batch_advisor.h"
#include "instances/tpcc.h"

namespace vpart {
namespace {

bool Contains(const Status& status, const std::string& needle) {
  return status.message().find(needle) != std::string::npos;
}

TEST(RequestJsonTest, UnknownTopLevelKeyNamesKeyAndListsValidOnes) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "num_sties": 3
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"num_sties\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "valid keys:"))
      << bad.status().ToString();
  // The listing must contain the key the user most plausibly meant.
  EXPECT_TRUE(Contains(bad.status(), "num_sites"))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "serve")) << bad.status().ToString();
}

// A request carries no sharding options: the coordinator shards batches by
// table only, so "dist" is an ordinary unknown key.
TEST(RequestJsonTest, DistBlockIsAnUnknownKey) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "dist": {"mode": "tables"}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"dist\""))
      << bad.status().ToString();
}

TEST(RequestJsonTest, UnknownNestedKeyListsTheBlocksValidKeys) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "ilp": {"mipgap": 0.01}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"mipgap\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "\"ilp\"")) << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "mip_gap")) << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "bnb_threads"))
      << bad.status().ToString();
}

TEST(RequestJsonTest, MissingInstanceNamesTheKeyAndListsValidOnes) {
  auto bad = ParseCliRequest(R"({"num_sites": 3})");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "missing required key \"instance\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "valid keys:"))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "solver")) << bad.status().ToString();
}

TEST(RequestJsonTest, InstanceBlockErrorsListItsOwnKeys) {
  auto bad = ParseCliRequest(R"({
    "instance": {"biultin": "tpcc"}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"biultin\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "builtin")) << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "random")) << bad.status().ToString();
}

TEST(RequestJsonTest, ParsesServeEnvelope) {
  auto cli = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "serve": {"id": "req-42", "deadline_seconds": 2.5, "qos": "batch"}
  })");
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  EXPECT_EQ(cli->serve.id, "req-42");
  EXPECT_DOUBLE_EQ(cli->serve.deadline_seconds, 2.5);
  EXPECT_EQ(cli->serve.qos, ServeQos::kBatch);
}

TEST(RequestJsonTest, ServeEnvelopeDefaults) {
  auto cli = ParseCliRequest(R"({"instance": {"builtin": "tpcc"}})");
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  EXPECT_TRUE(cli->serve.id.empty());
  EXPECT_DOUBLE_EQ(cli->serve.deadline_seconds, 0.0);
  EXPECT_EQ(cli->serve.qos, ServeQos::kInteractive);
}

TEST(RequestJsonTest, RejectsBadServeQosNamingTheValue) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "serve": {"qos": "urgent"}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "serve.qos")) << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "urgent")) << bad.status().ToString();
}

TEST(RequestJsonTest, RejectsUnknownServeKeyListingValidOnes) {
  auto bad = ParseCliRequest(R"({
    "instance": {"builtin": "tpcc"},
    "serve": {"deadline": 3}
  })");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(Contains(bad.status(), "unknown key \"deadline\""))
      << bad.status().ToString();
  EXPECT_TRUE(Contains(bad.status(), "deadline_seconds"))
      << bad.status().ToString();
}

// Thread counts come from outside the process (every daemon client frame is
// parsed here) and become pool sizes, so the parser caps them. Parse only:
// nothing below starts a solve or a thread.
std::string ThreadsRequest(const std::string& key, int value) {
  const std::string field = "\"" + key + "\": " + std::to_string(value);
  if (key == "bnb_threads") {
    return R"({"instance": {"builtin": "tpcc"}, "ilp": {)" + field + "}}";
  }
  return R"({"instance": {"builtin": "tpcc"}, "batch": true, )" + field + "}";
}

void ExpectRejectedNamingTheKey(int value) {
  for (const auto& [key, name] :
       {std::pair<std::string, std::string>{"num_threads", "num_threads"},
        {"bnb_threads", "ilp.bnb_threads"}}) {
    auto bad = ParseCliRequest(ThreadsRequest(key, value));
    ASSERT_FALSE(bad.ok()) << key << " = " << value;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_TRUE(Contains(bad.status(), "\"" + name + "\""))
        << bad.status().ToString();
  }
}

TEST(RequestJsonTest, ThreadCountsAreCappedNamingTheKey) {
  auto cli = ParseCliRequest(ThreadsRequest("num_threads", kMaxRequestThreads));
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  EXPECT_EQ(cli->request.num_threads, kMaxRequestThreads);
  cli = ParseCliRequest(ThreadsRequest("bnb_threads", kMaxRequestThreads));
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();
  EXPECT_EQ(cli->request.ilp.bnb_threads, kMaxRequestThreads);
  ExpectRejectedNamingTheKey(kMaxRequestThreads + 1);
}

TEST(RequestJsonTest, NegativeThreadCountsAreRejectedNamingTheKey) {
  ExpectRejectedNamingTheKey(-1);
}

TEST(RequestJsonTest, BatchAdvisorResultSerializesSharedDocument) {
  Instance instance = MakeTpccInstance();
  BatchAdvisorResult result;
  result.combined.partitioning = SingleSiteBaseline(instance, 1);
  result.combined.algorithm_used = "test";
  result.threads_used = 2;
  JsonValue out =
      BatchAdvisorResultToJson(instance, result, /*emit_partitioning=*/true);
  EXPECT_EQ(out.Find("mode")->as_string(), "batch");
  EXPECT_EQ(out.Find("instance")->as_string(), instance.name());
  ASSERT_NE(out.Find("combined"), nullptr);
  EXPECT_NE(out.Find("combined")->Find("partitioning"), nullptr);
  JsonValue no_layout =
      BatchAdvisorResultToJson(instance, result, /*emit_partitioning=*/false);
  EXPECT_EQ(no_layout.Find("combined")->Find("partitioning"), nullptr);
}

}  // namespace
}  // namespace vpart
