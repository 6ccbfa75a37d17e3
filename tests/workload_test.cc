#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "workload/instance.h"
#include "workload/schema.h"
#include "workload/workload.h"

namespace vpart {
namespace {

TEST(SchemaTest, AddAndLookup) {
  Schema schema;
  auto r = schema.AddTable("R");
  ASSERT_TRUE(r.ok());
  auto a = schema.AddAttribute(r.value(), "x", 4.0);
  ASSERT_TRUE(a.ok());
  auto b = schema.AddAttribute(r.value(), "y", 8.0);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(schema.num_tables(), 1);
  EXPECT_EQ(schema.num_attributes(), 2);
  EXPECT_EQ(schema.FindTable("R").value(), r.value());
  EXPECT_EQ(schema.FindAttribute("R.x").value(), a.value());
  EXPECT_EQ(schema.QualifiedName(b.value()), "R.y");
  EXPECT_EQ(schema.attribute(a.value()).width, 4.0);
  EXPECT_EQ(schema.table(r.value()).attribute_ids.size(), 2u);
}

TEST(SchemaTest, RejectsDuplicatesAndBadInput) {
  Schema schema;
  int r = schema.AddTable("R").value();
  EXPECT_EQ(schema.AddTable("R").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(schema.AddAttribute(r, "x", 4).ok());
  EXPECT_EQ(schema.AddAttribute(r, "x", 4).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.AddAttribute(r, "neg", -1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.AddAttribute(99, "z", 1).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(schema.FindTable("S").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(schema.FindAttribute("R.z").status().code(),
            StatusCode::kNotFound);
}

TEST(WorkloadTest, QueryAttributesAreDeduplicated) {
  Schema schema;
  int r = schema.AddTable("R").value();
  int a = schema.AddAttribute(r, "x", 4).value();

  Workload workload;
  int t = workload.AddTransaction("T").value();
  Query q;
  q.kind = QueryKind::kRead;
  q.attributes = {a, a, a};
  q.table_rows = {{r, 1.0}};
  int qid = workload.AddQuery(t, std::move(q)).value();
  EXPECT_EQ(workload.query(qid).attributes.size(), 1u);
  EXPECT_EQ(workload.query(qid).transaction_id, t);
  EXPECT_EQ(workload.transaction(t).query_ids.size(), 1u);
}

TEST(WorkloadTest, RejectsBadFrequencyAndRows) {
  Workload workload;
  int t = workload.AddTransaction("T").value();
  Query q;
  q.frequency = 0;
  EXPECT_EQ(workload.AddQuery(t, q).status().code(),
            StatusCode::kInvalidArgument);
  q.frequency = 1;
  q.table_rows = {{0, 0.0}};
  EXPECT_EQ(workload.AddQuery(t, q).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(workload.AddQuery(99, Query{}).status().code(),
            StatusCode::kOutOfRange);
}

// NaN and inf pass a `<= 0` test; the cost kernel needs finite
// coefficients (inf·0 is NaN), so they must be rejected where they enter.
TEST(WorkloadTest, RejectsNonFiniteWidthFrequencyAndRows) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    Schema schema;
    int r = schema.AddTable("R").value();
    EXPECT_EQ(schema.AddAttribute(r, "x", bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(schema.num_attributes(), 0);

    Workload workload;
    int t = workload.AddTransaction("T").value();
    Query q;
    q.frequency = bad;
    q.table_rows = {{r, 1.0}};
    EXPECT_EQ(workload.AddQuery(t, q).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    q.frequency = 1;
    q.table_rows = {{r, bad}};
    EXPECT_EQ(workload.AddQuery(t, q).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(workload.num_queries(), 0);
  }
}

TEST(InstanceTest, DerivedConstantsMatchDefinition) {
  // Table R(x:4, y:8), table S(z:2).
  // T0: q0 read f=2 rows(R)=3 refs {x}.
  // T1: q1 write f=1 rows(S)=5 refs {z}; q2 read f=1 rows(R)=1,rows(S)=2
  //     refs {y, z}.
  InstanceBuilder builder("micro");
  int r = builder.AddTable("R");
  int s = builder.AddTable("S");
  int x = builder.AddAttribute(r, "x", 4);
  int y = builder.AddAttribute(r, "y", 8);
  int z = builder.AddAttribute(s, "z", 2);
  int t0 = builder.AddTransaction("T0");
  int t1 = builder.AddTransaction("T1");
  int q0 = builder.AddQuery(t0, "q0", QueryKind::kRead, 2.0, {x}, {{r, 3.0}});
  int q1 = builder.AddQuery(t1, "q1", QueryKind::kWrite, 1.0, {z}, {{s, 5.0}});
  int q2 = builder.AddQuery(t1, "q2", QueryKind::kRead, 1.0, {y, z},
                            {{r, 1.0}, {s, 2.0}});
  auto instance_or = builder.Build();
  ASSERT_TRUE(instance_or.ok());
  const Instance& instance = instance_or.value();

  // α: referenced attributes only.
  EXPECT_TRUE(instance.alpha(x, q0));
  EXPECT_FALSE(instance.alpha(y, q0));
  EXPECT_TRUE(instance.alpha(z, q1));
  EXPECT_TRUE(instance.alpha(y, q2));
  EXPECT_TRUE(instance.alpha(z, q2));
  EXPECT_FALSE(instance.alpha(x, q2));

  // β: whole accessed tables.
  EXPECT_TRUE(instance.beta(x, q0));
  EXPECT_TRUE(instance.beta(y, q0));
  EXPECT_FALSE(instance.beta(z, q0));
  EXPECT_TRUE(instance.beta(x, q2));
  EXPECT_TRUE(instance.beta(z, q2));

  // γ and δ.
  EXPECT_TRUE(instance.gamma(q0, t0));
  EXPECT_FALSE(instance.gamma(q0, t1));
  EXPECT_TRUE(instance.is_write(q1));
  EXPECT_FALSE(instance.is_write(q2));

  // φ: read references only. q1 is a write, so z via q1 doesn't force.
  EXPECT_TRUE(instance.phi(x, t0));
  EXPECT_FALSE(instance.phi(y, t0));
  EXPECT_TRUE(instance.phi(y, t1));
  EXPECT_TRUE(instance.phi(z, t1));  // via read q2
  EXPECT_FALSE(instance.phi(x, t1));

  // W = width * frequency * rows.
  EXPECT_DOUBLE_EQ(instance.W(x, q0), 4 * 2 * 3);
  EXPECT_DOUBLE_EQ(instance.W(y, q0), 8 * 2 * 3);
  EXPECT_DOUBLE_EQ(instance.W(z, q0), 0);
  EXPECT_DOUBLE_EQ(instance.W(z, q1), 2 * 1 * 5);
  EXPECT_DOUBLE_EQ(instance.W(x, q2), 4 * 1 * 1);
  EXPECT_DOUBLE_EQ(instance.W(y, q2), 8 * 1 * 1);
  EXPECT_DOUBLE_EQ(instance.W(z, q2), 2 * 1 * 2);

  // Read sets and touched sets.
  EXPECT_EQ(instance.ReadSetOfTransaction(t0), (std::vector<int>{x}));
  EXPECT_EQ(instance.ReadSetOfTransaction(t1), (std::vector<int>{y, z}));
  EXPECT_EQ(instance.TouchedAttributesOfTransaction(t0),
            (std::vector<int>{x, y}));
  EXPECT_EQ(instance.TouchedAttributesOfTransaction(t1),
            (std::vector<int>{x, y, z}));
}

TEST(InstanceTest, RejectsReferenceWithoutTableRows) {
  Schema schema;
  int r = schema.AddTable("R").value();
  int x = schema.AddAttribute(r, "x", 4).value();
  Workload workload;
  int t = workload.AddTransaction("T").value();
  Query q;
  q.kind = QueryKind::kRead;
  q.attributes = {x};  // no table_rows for R
  ASSERT_TRUE(workload.AddQuery(t, std::move(q)).ok());
  auto instance = Instance::Create("bad", std::move(schema),
                                   std::move(workload));
  EXPECT_FALSE(instance.ok());
  EXPECT_EQ(instance.status().code(), StatusCode::kInvalidArgument);
}

TEST(InstanceTest, RejectsEmptyInstances) {
  EXPECT_FALSE(Instance::Create("e", Schema(), Workload()).ok());
}

TEST(InstanceBuilderTest, UpdateSplitFollowsPaperRule) {
  InstanceBuilder builder("upd");
  int r = builder.AddTable("R");
  int x = builder.AddAttribute(r, "x", 4);
  int y = builder.AddAttribute(r, "y", 8);
  int t = builder.AddTransaction("T");
  auto [read_id, write_id] =
      builder.AddUpdateQuery(t, "u", 1.0, {x}, {y}, 2.0);
  auto instance_or = builder.Build();
  ASSERT_TRUE(instance_or.ok());
  const Instance& instance = instance_or.value();

  // Read sub-query references predicate and written attributes.
  EXPECT_TRUE(instance.alpha(x, read_id));
  EXPECT_TRUE(instance.alpha(y, read_id));
  EXPECT_FALSE(instance.is_write(read_id));
  // Write sub-query references only the written attribute.
  EXPECT_FALSE(instance.alpha(x, write_id));
  EXPECT_TRUE(instance.alpha(y, write_id));
  EXPECT_TRUE(instance.is_write(write_id));
  // Both touch 2 rows in R.
  EXPECT_DOUBLE_EQ(instance.W(x, read_id), 4 * 1 * 2);
  EXPECT_DOUBLE_EQ(instance.W(x, write_id), 4 * 1 * 2);
  // φ forces co-location through the read part (x and y).
  EXPECT_TRUE(instance.phi(x, t));
  EXPECT_TRUE(instance.phi(y, t));
}

}  // namespace
}  // namespace vpart
