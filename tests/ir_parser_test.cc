#include "src/ir/parser.h"

#include <gtest/gtest.h>

namespace t10 {
namespace {

TEST(ParserTest, ParsesMlp) {
  const char* text = R"(
    # A two-layer MLP.
    model tiny-mlp
    matmul name=fc1 m=32 k=128 n=256 a=x b=w1 c=h1 weight=w1
    unary  name=relu shape=32x256 in=h1 out=h2
    matmul name=fc2 m=32 k=256 n=64 a=h2 b=w2 c=y weight=w2 dtype=f16
  )";
  Graph g = ParseModelText(text);
  EXPECT_EQ(g.name(), "tiny-mlp");
  EXPECT_EQ(g.num_ops(), 3);
  EXPECT_TRUE(g.tensor("w1").is_weight);
  EXPECT_TRUE(g.tensor("w2").is_weight);
  EXPECT_EQ(g.tensor("h2").shape, (std::vector<std::int64_t>{32, 256}));
}

TEST(ParserTest, AllOpKinds) {
  const char* text = R"(
    model kinds
    gather name=emb n=16 vocab=100 embed=32 idx=ids table=tbl out=e0 weight=tbl
    unary  name=act shape=16x32 in=e0 out=e1 cost=8
    binary name=add shape=16x32 lhs=e1 rhs=e0 out=e2
    reduce name=sum shape=16x32 in=e2 out=e3
    vendor name=sort shape=16 in=e3 out=e4
    conv2d name=c1 batch=1 cin=4 cout=8 h=6 w=6 kh=3 kw=3 in=img wt=k1 out=fm weight=k1
    bmm    name=att batch=2 m=16 k=8 n=16 a=q b=kk c=s
  )";
  Graph g = ParseModelText(text);
  EXPECT_EQ(g.num_ops(), 7);
  EXPECT_EQ(g.op(0).kind(), OpKind::kGather);
  EXPECT_EQ(g.op(1).kind(), OpKind::kElementwise);
  EXPECT_DOUBLE_EQ(g.op(1).elementwise_cost(), 8.0);
  EXPECT_EQ(g.op(2).kind(), OpKind::kElementwise);
  EXPECT_EQ(g.op(3).kind(), OpKind::kReduceSum);
  EXPECT_EQ(g.op(4).kind(), OpKind::kVendor);
  EXPECT_EQ(g.op(5).kind(), OpKind::kContraction);
  EXPECT_EQ(g.op(6).kind(), OpKind::kContraction);
  // Conv input is pre-padded: 6+3-1 = 8.
  EXPECT_EQ(g.tensor("img").shape, (std::vector<std::int64_t>{1, 4, 8, 8}));
}

TEST(ParserTest, CommentsAndBlankLinesIgnored) {
  Graph g = ParseModelText("\n# only comments\n\nmodel empty\n");
  EXPECT_EQ(g.num_ops(), 0);
  EXPECT_EQ(g.name(), "empty");
}

TEST(ParserTest, MultipleWeightsOnOneLine) {
  const char* text = R"(
    binary name=scale shape=8 lhs=g0 rhs=beta out=y weight=g0,beta
  )";
  Graph g = ParseModelText(text);
  EXPECT_TRUE(g.tensor("g0").is_weight);
  EXPECT_TRUE(g.tensor("beta").is_weight);
}

// The sample model files shipped under models/ must parse and stay
// well-formed (they are the t10c driver's demo inputs).
TEST(ParserTest, ShippedModelFilesParse) {
  const std::string root = T10_SOURCE_DIR;
  Graph mlp = ParseModelFile(root + "/models/mlp.t10");
  EXPECT_EQ(mlp.num_ops(), 5);
  EXPECT_EQ(mlp.WeightBytes(), (512 * 1024 + 1024 * 1024 + 1024 * 512) * 2);
  Graph block = ParseModelFile(root + "/models/transformer_block.t10");
  EXPECT_EQ(block.num_ops(), 14);
  EXPECT_TRUE(block.tensor("wq").is_weight);
  Graph conv = ParseModelFile(root + "/models/conv_stack.t10");
  EXPECT_EQ(conv.num_ops(), 8);
  // Stride-2 stem reads a 5x5 window over a 2x-strided grid: 2*31+5 = 67.
  EXPECT_EQ(conv.tensor("image").shape, (std::vector<std::int64_t>{4, 3, 67, 67}));
}

TEST(ParserDeathTest, MissingArgument) {
  EXPECT_DEATH(ParseModelText("matmul name=x m=4 k=4"), "missing argument");
}

TEST(ParserDeathTest, UnknownDirective) {
  EXPECT_DEATH(ParseModelText("frobnicate name=x"), "unknown directive");
}

// Recoverable parsing: TryParseModelText reports malformed input as
// kInvalidArgument with a "line N:" prefix instead of aborting; the t10c
// driver turns these into exit code 2.
struct MalformedCase {
  const char* name;
  const char* text;
  const char* message_fragment;
};

// Without a printer gtest lists the parameter as its raw bytes — three
// string pointers, which differ from process to process under ASLR — so
// the listed test names would never be stable. Print the case name.
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class ParserMalformedTest : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(ParserMalformedTest, ReportsInvalidArgument) {
  StatusOr<Graph> graph = TryParseModelText(GetParam().text);
  ASSERT_FALSE(graph.ok()) << GetParam().name;
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument) << GetParam().name;
  EXPECT_NE(graph.status().message().find("line "), std::string::npos)
      << GetParam().name << ": " << graph.status().ToString();
  EXPECT_NE(graph.status().message().find(GetParam().message_fragment), std::string::npos)
      << GetParam().name << ": " << graph.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserMalformedTest,
    ::testing::Values(
        MalformedCase{"missing_argument", "matmul name=x m=4 k=4", "missing argument"},
        MalformedCase{"unknown_directive", "frobnicate name=x", "unknown directive"},
        MalformedCase{"bad_integer", "matmul name=x m=four k=4 n=4 a=a b=b c=c",
                      "bad integer"},
        MalformedCase{"nonpositive_axis", "matmul name=x m=0 k=4 n=4 a=a b=b c=c",
                      "must be positive"},
        MalformedCase{"negative_dim", "unary name=u shape=8x-2 in=a out=b", "bad shape"},
        MalformedCase{"bad_dtype",
                      "matmul name=x m=4 k=4 n=4 a=a b=b c=c dtype=f64", "dtype"},
        MalformedCase{"bad_cost", "unary name=u shape=8 in=a out=b cost=cheap", "number"},
        MalformedCase{"unknown_weight_tensor",
                      "matmul name=x m=4 k=4 n=4 a=a b=b c=c weight=nope", "weight"},
        MalformedCase{"produced_weight",
                      "matmul name=x m=4 k=4 n=4 a=a b=b c=c weight=c", "weight"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) { return info.param.name; });

TEST(ParserMalformedTest, UnreadableFileIsError) {
  StatusOr<Graph> graph = TryParseModelFile("/nonexistent/model.t10");
  ASSERT_FALSE(graph.ok());
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserMalformedTest, FirstErrorWins) {
  // Two bad lines: the reported line number is the first one (line 2 of the
  // text; line 1 is the leading newline).
  StatusOr<Graph> graph = TryParseModelText("\nfrobnicate name=x\nwibble name=y\n");
  ASSERT_FALSE(graph.ok());
  EXPECT_NE(graph.status().message().find("line 2:"), std::string::npos)
      << graph.status().ToString();
}

TEST(ParserMalformedTest, ValidTextStillParses) {
  StatusOr<Graph> graph =
      TryParseModelText("model ok\nmatmul name=x m=4 k=4 n=4 a=a b=b c=c weight=b\n");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_ops(), 1);
  EXPECT_TRUE(graph->tensor("b").is_weight);
}

}  // namespace
}  // namespace t10
