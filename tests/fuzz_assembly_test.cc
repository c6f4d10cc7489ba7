// Randomized differential testing of the assembly operator.
//
// For a batch of seeds: generate a random acyclic object graph (random
// fan-out, random cross-references creating shared components, random
// physical placement), derive a random template over it (random subset of
// reference slots, random sharing annotations on genuinely shared levels,
// random predicates), then check that the operator — under every scheduler
// and several window sizes — emits exactly the complex objects the naive
// object-at-a-time oracle produces, with identical reachable OID sets.

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "assembly/assembly_operator.h"
#include "assembly/naive.h"
#include "buffer/buffer_manager.h"
#include "common/rng.h"
#include "exec/scan.h"
#include "file/heap_file.h"
#include "object/directory.h"
#include "object/object_store.h"
#include "storage/disk.h"

namespace cobra {
namespace {

using exec::Row;
using exec::Value;
using exec::VectorScan;

struct FuzzWorld {
  std::unique_ptr<SimulatedDisk> disk;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<HashDirectory> directory;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AssemblyTemplate> tmpl;
  std::vector<Oid> roots;
};

// Builds a random layered DAG: `depth` layers; layer 0 objects are roots;
// each object references a random subset of next-layer objects.  Objects in
// deeper layers may be referenced by several parents (sharing).
void BuildFuzzWorld(uint64_t seed, FuzzWorld* out) {
  Rng rng(seed);
  FuzzWorld& world = *out;
  world.disk = std::make_unique<SimulatedDisk>();
  world.buffer = std::make_unique<BufferManager>(
      world.disk.get(), BufferOptions{.num_frames = 4096});
  world.directory = std::make_unique<HashDirectory>();
  world.store = std::make_unique<ObjectStore>(world.buffer.get(),
                                              world.directory.get());

  const int depth = 2 + static_cast<int>(rng.NextBounded(3));  // 2..4
  const size_t num_roots = 5 + rng.NextBounded(15);
  const size_t layer_width = 8 + rng.NextBounded(20);
  const int refs_per_object = 1 + static_cast<int>(rng.NextBounded(3));

  // Layer sizes: roots, then shared pools.
  std::vector<std::vector<Oid>> layers(static_cast<size_t>(depth) + 1);

  // Template: one node per layer; layer l node follows ref slots
  // 0..refs_per_object-1 into layer l+1.  Deeper layers marked shared with
  // probability 1/2; random predicates with probability 1/3.
  world.tmpl = std::make_unique<AssemblyTemplate>();
  std::vector<TemplateNode*> nodes;
  for (int l = 0; l <= depth; ++l) {
    TemplateNode* node = world.tmpl->AddNode(std::string("L").append(std::to_string(l)));
    node->expected_type = static_cast<TypeId>(l + 1);
    if (l > 0 && rng.NextBool(0.5)) {
      node->shared = true;
    }
    if (rng.NextBool(0.33)) {
      int32_t threshold = static_cast<int32_t>(rng.NextBounded(100));
      node->predicate = [threshold](const ObjectData& obj) {
        return obj.fields[0] >= threshold;
      };
      node->selectivity = (100.0 - threshold) / 100.0;
    }
    nodes.push_back(node);
  }
  for (int l = 0; l < depth; ++l) {
    for (int r = 0; r < refs_per_object; ++r) {
      nodes[static_cast<size_t>(l)]->children.push_back(
          {r, nodes[static_cast<size_t>(l) + 1]});
    }
  }
  world.tmpl->SetRoot(nodes[0]);

  // Objects, bottom layer first so references exist.
  size_t file_pages = 512;
  HeapFile file(world.buffer.get(), 0, file_pages);
  for (int l = depth; l >= 0; --l) {
    size_t count = l == 0 ? num_roots : layer_width;
    for (size_t i = 0; i < count; ++i) {
      ObjectData obj;
      obj.oid = world.store->AllocateOid();
      obj.type_id = static_cast<TypeId>(l + 1);
      obj.fields = {static_cast<int32_t>(rng.NextBounded(100)),
                    static_cast<int32_t>(l), static_cast<int32_t>(i), 0};
      obj.refs.assign(8, kInvalidOid);
      if (l < depth) {
        const auto& below = layers[static_cast<size_t>(l) + 1];
        for (int r = 0; r < refs_per_object; ++r) {
          // Some references are deliberately absent.
          if (rng.NextBool(0.15)) continue;
          obj.refs[r] = below[rng.NextBounded(below.size())];
        }
      }
      size_t page = rng.NextBounded(file_pages - 1);
      // Retry placement on full pages (random placement, like the
      // unclustered generator).
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto stored = world.store->InsertAtPage(obj, &file, page);
        if (stored.ok()) break;
        ASSERT_TRUE(stored.status().IsResourceExhausted())
            << stored.status().ToString();
        page = (page + 1) % (file_pages - 1);
      }
      layers[static_cast<size_t>(l)].push_back(obj.oid);
    }
  }
  world.roots = layers[0];
}

class FuzzAssemblyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzAssemblyTest, OperatorMatchesNaiveOracle) {
  SCOPED_TRACE("seed=" + std::to_string(GetParam()));
  FuzzWorld world;
  BuildFuzzWorld(GetParam(), &world);
  ASSERT_TRUE(world.tmpl->Validate().ok());

  NaiveAssembler naive(world.store.get(), world.tmpl.get());
  ObjectArena arena;
  std::map<Oid, std::set<Oid>> expected;
  for (Oid root : world.roots) {
    auto obj = naive.AssembleOne(root, &arena);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    if (*obj == nullptr) continue;  // predicate-rejected
    auto oids = CollectOids(*obj);
    expected[root] = std::set<Oid>(oids.begin(), oids.end());
  }

  for (auto kind : {SchedulerKind::kDepthFirst, SchedulerKind::kBreadthFirst,
                    SchedulerKind::kElevator}) {
    for (size_t window : {size_t{1}, size_t{4}, size_t{64}}) {
      for (bool sharing_stats : {true, false}) {
        std::vector<Row> rows;
        for (Oid oid : world.roots) rows.push_back(Row{Value::Ref(oid)});
        AssemblyOptions options;
        options.scheduler = kind;
        options.window_size = window;
        options.use_sharing_statistics = sharing_stats;
        options.prioritize_predicates = (GetParam() % 2) == 0;
        AssemblyOperator op(std::make_unique<VectorScan>(std::move(rows)),
                            world.tmpl.get(), world.store.get(), options);
        ASSERT_TRUE(op.Open().ok());
        std::map<Oid, std::set<Oid>> got;
        exec::RowBatch batch;
        for (;;) {
          auto n = op.NextBatch(&batch);
          ASSERT_TRUE(n.ok())
              << n.status().ToString() << " scheduler "
              << SchedulerKindName(kind) << " window " << window;
          if (*n == 0) break;
          for (size_t i = 0; i < *n; ++i) {
            const AssembledObject* obj = batch[i][0].AsObject();
            auto oids = CollectOids(obj);
            got[obj->oid] = std::set<Oid>(oids.begin(), oids.end());
          }
        }
        ASSERT_TRUE(op.Close().ok());
        EXPECT_EQ(got, expected)
            << "seed " << GetParam() << " scheduler "
            << SchedulerKindName(kind) << " window " << window
            << " sharing_stats " << sharing_stats;
      }
    }
  }
}

// Seeds are pinned (never derived from time or run order) and embedded in
// the test name, so a failing ctest line like Seeds/FuzzAssemblyTest.
// OperatorMatchesNaiveOracle/Seed7 reproduces the exact world as-is.
INSTANTIATE_TEST_SUITE_P(Seeds, FuzzAssemblyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{25}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace cobra
