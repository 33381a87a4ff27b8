// Golden labels: the labels TopDown (Algorithm 1) and the naive
// level-wise search find at bound 60 on the synthetic COMPAS and
// CreditCard datasets (generator seed 2021), pinned by attribute set,
// |PC| and a hash of the PortableLabel binary bytes. The pins were
// recorded before sibling refinement entered the counting engine; every
// sizing, ranking, tie-breaking or encoding change that moves a label —
// under any engine setting or thread count — fails here.
//
// Each golden runs with the engine on and off at 1 and 4 threads, except
// the naive CreditCard search: it sizes 536,130 subsets per run, so it
// takes two arms (engine at 4 threads, no engine at 1 thread) that still
// cover both settings and both thread counts.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/portable_label.h"
#include "core/search.h"
#include "util/str.h"
#include "workload/datasets.h"

namespace pcbl {
namespace {

enum class Algo { kTopDown, kNaive };

struct Arm {
  bool engine = true;
  int threads = 1;
};

const std::vector<Arm> kAllArms = {{true, 1}, {true, 4}, {false, 1},
                                   {false, 4}};

struct Golden {
  std::string name;
  bool compas = true;
  int64_t rows = 0;
  Algo algo = Algo::kTopDown;
  std::vector<std::string> attributes;  // label attributes, schema order
  int64_t size = 0;                     // |PC|
  uint64_t binary_fnv1a = 0;            // FNV-1a 64 of ToBinary()
  std::vector<Arm> arms = kAllArms;
};

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<Golden> Goldens() {
  return {
      {"CompasTopDown", true, 8000, Algo::kTopDown,
       {"Scale_ID", "DisplayText", "DecileScore", "RecSupervisionLevel",
        "RecSupervisionLevelText"},
       48, 0x123611b360de36beULL},
      {"CompasNaive", true, 8000, Algo::kNaive,
       {"Scale_ID", "DisplayText", "DecileScore", "RecSupervisionLevel",
        "RecSupervisionLevelText"},
       48, 0x123611b360de36beULL},
      {"CreditCardTopDown", false, 1000, Algo::kTopDown,
       {"PAY_0", "PAY_2", "PAY_3"},
       54, 0x536bca0758d88040ULL},
      {"CreditCardNaive", false, 1000, Algo::kNaive,
       {"PAY_3", "PAY_4", "PAY_5"},
       45, 0x6b2c82500abbd238ULL, {{true, 4}, {false, 1}}},
  };
}

class GoldenLabelTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenLabelTest, SameLabelWithEngineOnAndOffAtAnyThreadCount) {
  const Golden& golden = GetParam();
  Result<Table> table =
      golden.compas ? workload::MakeCompas(golden.rows, 2021)
                    : workload::MakeCreditCard(golden.rows, 2021);
  ASSERT_TRUE(table.ok()) << table.status();
  const LabelSearch search(*table);
  for (const Arm& arm : golden.arms) {
    SearchOptions options;
    options.size_bound = 60;
    options.use_counting_engine = arm.engine;
    options.num_threads = arm.threads;
    const SearchResult result = golden.algo == Algo::kTopDown
                                    ? search.TopDown(options)
                                    : search.Naive(options);
    const PortableLabel label = MakePortable(result.label, *table);
    std::vector<std::string> attributes;
    for (int a : label.label_attributes) {
      attributes.push_back(label.attribute_names[static_cast<size_t>(a)]);
    }
    const std::string context = StrCat(arm.engine ? "engine" : "no-engine",
                                       ", threads ", arm.threads);
    EXPECT_EQ(attributes, golden.attributes) << context;
    EXPECT_EQ(label.size(), golden.size) << context;
    const uint64_t hash = Fnv1a(ToBinary(label));
    EXPECT_EQ(hash, golden.binary_fnv1a)
        << context << ": 0x" << std::hex << hash;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SynthSeed2021Bound60, GoldenLabelTest, ::testing::ValuesIn(Goldens()),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace pcbl
