#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "opt/orchestrate.hpp"

namespace {

using bg::opt::DecisionVector;
using bg::opt::load_decisions_csv;
using bg::opt::OpKind;
using bg::opt::save_decisions_csv;

class DecisionsCsv : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("bg_decisions_csv_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path file(const char* name) const {
        return dir_ / name;
    }
    std::filesystem::path write_text(const char* name, const char* text) {
        const auto p = file(name);
        std::ofstream os(p);
        os << text;
        return p;
    }

    std::filesystem::path dir_;
};

TEST_F(DecisionsCsv, RoundTripsEveryOpKindIncludingNone) {
    const DecisionVector d = {OpKind::Rewrite, OpKind::Resub,
                              OpKind::Refactor, OpKind::None,
                              OpKind::None,    OpKind::Rewrite};
    const auto p = file("all_ops.csv");
    save_decisions_csv(p, d);
    EXPECT_EQ(load_decisions_csv(p), d);
}

TEST_F(DecisionsCsv, RoundTripsEmptyVector) {
    const DecisionVector d;
    const auto p = file("empty.csv");
    save_decisions_csv(p, d);
    const auto loaded = load_decisions_csv(p);
    EXPECT_TRUE(loaded.empty());
}

TEST_F(DecisionsCsv, RoundTripsLargeVectorDensely) {
    DecisionVector d;
    for (std::size_t i = 0; i < 500; ++i) {
        d.push_back(bg::opt::op_from_index(static_cast<int>(i % 4)));
    }
    const auto p = file("large.csv");
    save_decisions_csv(p, d);
    EXPECT_EQ(load_decisions_csv(p), d);
}

TEST_F(DecisionsCsv, RejectsWrongColumnCount) {
    const auto p = write_text("columns.csv",
                              "node,decision\n0,1,extra\n");
    EXPECT_THROW((void)load_decisions_csv(p), std::runtime_error);
    const auto p1 = write_text("one_column.csv", "node,decision\n0\n");
    EXPECT_THROW((void)load_decisions_csv(p1), std::runtime_error);
}

TEST_F(DecisionsCsv, RejectsSparseOrShuffledIndices) {
    const auto gap = write_text("gap.csv", "node,decision\n0,1\n2,1\n");
    EXPECT_THROW((void)load_decisions_csv(gap), std::runtime_error);
    const auto shuffled =
        write_text("shuffled.csv", "node,decision\n1,1\n0,1\n");
    EXPECT_THROW((void)load_decisions_csv(shuffled), std::runtime_error);
}

TEST_F(DecisionsCsv, RejectsOutOfRangeDecision) {
    const auto p = write_text("bad_op.csv", "node,decision\n0,7\n");
    EXPECT_THROW((void)load_decisions_csv(p), std::runtime_error);
}

TEST_F(DecisionsCsv, RejectsNonNumericCells) {
    const auto p = write_text("garbage.csv", "node,decision\nzero,rw\n");
    EXPECT_THROW((void)load_decisions_csv(p), std::runtime_error);
}

// Each malformed field sits in data row 2, after a valid row 1: the load
// must fail with std::runtime_error (never a partial parse, a contract
// violation or a std::stoi exception) and the message must name row 2.
TEST_F(DecisionsCsv, MalformedFieldsThrowRuntimeErrorNamingTheRow) {
    const char* bad_rows[] = {
        "1,1x",           // trailing junk after the decision
        "x,1",            // non-numeric node id
        "1,9",            // decision above 3
        "1,-1",           // negative decision
        "1,99999999999",  // decision overflows int
        "1, 1",           // embedded whitespace
        "1,+1",           // explicit sign
        "1,",             // empty decision
        "-1,1",           // negative node id
        "99999999999999999999999,1",  // node id overflows size_t
    };
    for (const char* row : bad_rows) {
        SCOPED_TRACE(row);
        const std::string text = std::string("node,decision\n0,1\n") + row +
                                 "\n";
        const auto p = write_text("malformed.csv", text.c_str());
        try {
            (void)load_decisions_csv(p);
            ADD_FAILURE() << "accepted a malformed row";
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find("row 2"), std::string::npos)
                << e.what();
        } catch (const std::exception& e) {
            ADD_FAILURE() << "wrong exception type: " << e.what();
        }
    }
}

TEST_F(DecisionsCsv, MissingFileThrows) {
    EXPECT_THROW((void)load_decisions_csv(file("does_not_exist.csv")),
                 std::runtime_error);
}

}  // namespace
