// benchutil::Table: the column kinds alone decide what --smoke omits and which
// cells count toward a bench's exit status.

#include <gtest/gtest.h>

#include <stdexcept>

#include "../bench/bench_util.hpp"

namespace {

using benchutil::Table;

/// benchutil::smoke is process-wide: every test starts and ends with it unset.
class TableTest : public ::testing::Test {
 protected:
  void TearDown() override { benchutil::smoke = false; }
};

Table timing_table() {
  Table t({"path", {"per_op_us", benchutil::host}, "calls", {"check", benchutil::verdict}});
  t.add_row({"fast", "1.5", "64", true});
  t.add_row({"reference", "12.25", "64", false});
  return t;
}

TEST_F(TableTest, KeepsHostColumnsOutsideSmoke) {
  EXPECT_EQ(timing_table().render(),
            "path       per_op_us  calls  check  \n"
            "------------------------------------\n"
            "fast       1.5        64     ok     \n"
            "reference  12.25      64     FAIL   \n");
}

TEST_F(TableTest, SmokeOmitsHostColumns) {
  benchutil::smoke = true;
  EXPECT_EQ(timing_table().render(),
            "path       calls  check  \n"
            "-------------------------\n"
            "fast       64     ok     \n"
            "reference  64     FAIL   \n");
}

TEST_F(TableTest, SmokeLeavingOnlyTheLabelColumnRendersNothing) {
  Table t({"path", {"total_ms", benchutil::host}, {"per_op_us", benchutil::host}});
  t.add_row({"fast", "3.0", "1.5"});
  Table host_only({{"per_s", benchutil::host}});
  host_only.add_row({"5601"});
  benchutil::smoke = true;
  EXPECT_EQ(t.render(), "");
  EXPECT_EQ(host_only.render(), "");
  benchutil::smoke = false;
  EXPECT_EQ(host_only.render(), "per_s  \n-------\n5601   \n");
}

TEST_F(TableTest, PlainOneColumnTableStillPrintsInSmoke) {
  Table t({"name"});
  t.add_row({"a"});
  benchutil::smoke = true;
  EXPECT_EQ(t.render(), "name  \n------\na     \n");
}

TEST_F(TableTest, FailedVerdictsReachTheExitStatus) {
  EXPECT_EQ(timing_table().failed(), 1u);
  EXPECT_EQ(benchutil::exit_status(timing_table().failed()), 1);

  Table t({"row", {"check", benchutil::verdict}});
  for (int i = 0; i < 300; ++i) t.add_row({"r", i % 3 != 0});
  EXPECT_EQ(t.failed(), 100u);
  EXPECT_EQ(benchutil::exit_status(t.failed()), 100);
  for (int i = 0; i < 200; ++i) t.add_row({"r", false});
  EXPECT_EQ(t.failed(), 300u);
  EXPECT_EQ(benchutil::exit_status(t.failed()), 255);
}

TEST_F(TableTest, AddRowRejectsAWrongCellCount) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.render(), "a  b  \n------\n1  2  \n");
}

TEST_F(TableTest, AddRowRejectsBoolsOutsideVerdictColumns) {
  Table t({"a", {"check", benchutil::verdict}});
  EXPECT_THROW(t.add_row({true, true}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"x", "ok"}), std::invalid_argument);
  t.add_row({"x", true});
  EXPECT_EQ(t.failed(), 0u);
}

}  // namespace
