#include "exec/plan.h"

#include "exec/distinct.h"
#include "exec/filter_project.h"
#include "obs/profile.h"

namespace cobra::exec {
namespace {

// Indents child explain lines under a parent.
std::vector<std::string> IndentChild(const std::vector<std::string>& child,
                                     bool last_child) {
  std::vector<std::string> out;
  out.reserve(child.size());
  for (size_t i = 0; i < child.size(); ++i) {
    if (i == 0) {
      out.push_back((last_child ? "└─ " : "├─ ") + child[i]);
    } else {
      out.push_back((last_child ? "   " : "│  ") + child[i]);
    }
  }
  return out;
}

}  // namespace

PlanBuilder PlanBuilder::FromRows(std::vector<Row> rows) {
  PlanBuilder builder;
  size_t n = rows.size();
  builder.root_ = std::make_unique<VectorScan>(std::move(rows));
  builder.explain_lines_ = {"VectorScan [" + std::to_string(n) + " rows]"};
  return builder;
}

PlanBuilder PlanBuilder::FromOids(const std::vector<cobra::Oid>& roots) {
  std::vector<Row> rows;
  rows.reserve(roots.size());
  for (cobra::Oid oid : roots) {
    rows.push_back(Row{Value::Ref(oid)});
  }
  PlanBuilder builder = FromRows(std::move(rows));
  builder.explain_lines_ = {"OidList [" + std::to_string(roots.size()) +
                            " roots]"};
  return builder;
}

PlanBuilder PlanBuilder::ScanOids(const HeapFile* file) {
  PlanBuilder builder;
  builder.root_ = std::make_unique<OidScan>(file);
  builder.explain_lines_ = {"OidScan [heap file @" +
                            std::to_string(file->first_page()) + "]"};
  return builder;
}

PlanBuilder PlanBuilder::ScanObjects(const HeapFile* file,
                                     size_t num_fields) {
  PlanBuilder builder;
  builder.root_ = std::make_unique<ObjectFieldScan>(file, num_fields);
  builder.explain_lines_ = {"ObjectFieldScan [heap file @" +
                            std::to_string(file->first_page()) + ", " +
                            std::to_string(num_fields) + " fields]"};
  return builder;
}

PlanBuilder PlanBuilder::ScanBTree(const BTree* tree, uint64_t lo,
                                   std::optional<uint64_t> hi) {
  PlanBuilder builder;
  builder.root_ = std::make_unique<BTreeScan>(tree, lo, hi);
  std::string range = "[";
  range += std::to_string(lo);
  range += ", ";
  range += hi.has_value() ? std::to_string(*hi) : "inf";
  range += ")";
  builder.explain_lines_ = {"BTreeScan " + range};
  return builder;
}

PlanBuilder PlanBuilder::BatchSize(size_t batch_size) && {
  batch_size_ = batch_size == 0 ? 1 : batch_size;
  return std::move(*this);
}

std::unique_ptr<Iterator> PlanBuilder::MaybeProfile(
    std::unique_ptr<Iterator> op) {
  if (!profiling_) return op;
  auto profiled =
      std::make_unique<obs::ProfiledIterator>(std::move(op), profile_clock_);
  line_profilers_.insert(line_profilers_.begin(), profiled.get());
  return profiled;
}

PlanBuilder PlanBuilder::Profile(const cobra::obs::Clock* clock) && {
  profiling_ = true;
  profile_clock_ = clock;
  line_profilers_.assign(explain_lines_.size(), nullptr);
  auto profiled =
      std::make_unique<obs::ProfiledIterator>(std::move(root_), clock);
  if (!line_profilers_.empty()) line_profilers_[0] = profiled.get();
  root_ = std::move(profiled);
  return std::move(*this);
}

void PlanBuilder::Wrap(std::unique_ptr<Iterator> op, std::string label) {
  // Pad the profiler column to the pre-wrap line count, then prepend the
  // new operator's slot so it stays parallel to explain_lines_.
  line_profilers_.resize(explain_lines_.size(), nullptr);
  root_ = MaybeProfile(std::move(op));
  std::vector<std::string> lines = {std::move(label)};
  for (std::string& line : IndentChild(explain_lines_, /*last_child=*/true)) {
    lines.push_back(std::move(line));
  }
  explain_lines_ = std::move(lines);
  if (!profiling_) line_profilers_.insert(line_profilers_.begin(), nullptr);
}

void PlanBuilder::WrapBinary(std::unique_ptr<Iterator> op, std::string label,
                             PlanBuilder right) {
  line_profilers_.resize(explain_lines_.size(), nullptr);
  right.line_profilers_.resize(right.explain_lines_.size(), nullptr);
  root_ = MaybeProfile(std::move(op));
  std::vector<std::string> lines = {std::move(label)};
  for (std::string& line :
       IndentChild(explain_lines_, /*last_child=*/false)) {
    lines.push_back(std::move(line));
  }
  for (std::string& line :
       IndentChild(right.explain_lines_, /*last_child=*/true)) {
    lines.push_back(std::move(line));
  }
  explain_lines_ = std::move(lines);
  if (!profiling_) line_profilers_.insert(line_profilers_.begin(), nullptr);
  line_profilers_.insert(line_profilers_.end(),
                         right.line_profilers_.begin(),
                         right.line_profilers_.end());
  if (right.last_assembly_ != nullptr) {
    last_assembly_ = right.last_assembly_;
  }
}

PlanBuilder PlanBuilder::Filter(ExprPtr predicate) && {
  Wrap(std::make_unique<exec::Filter>(std::move(root_), std::move(predicate),
                                      batch_size_),
       "Filter");
  return std::move(*this);
}

PlanBuilder PlanBuilder::Project(std::vector<ExprPtr> exprs) && {
  size_t n = exprs.size();
  Wrap(std::make_unique<exec::Project>(std::move(root_), std::move(exprs),
                                       batch_size_),
       "Project [" + std::to_string(n) + " exprs]");
  return std::move(*this);
}

PlanBuilder PlanBuilder::Sort(std::vector<SortKey> keys) && {
  size_t n = keys.size();
  Wrap(std::make_unique<exec::Sort>(std::move(root_), std::move(keys),
                                    batch_size_),
       "Sort [" + std::to_string(n) + " keys]");
  return std::move(*this);
}

PlanBuilder PlanBuilder::Limit(size_t limit) && {
  Wrap(std::make_unique<exec::Limit>(std::move(root_), limit, batch_size_),
       "Limit [" + std::to_string(limit) + "]");
  return std::move(*this);
}

PlanBuilder PlanBuilder::Aggregate(std::vector<ExprPtr> group_by,
                                   std::vector<AggSpec> aggs) && {
  std::string label = "HashAggregate [" + std::to_string(group_by.size()) +
                      " keys, " + std::to_string(aggs.size()) + " aggs]";
  Wrap(std::make_unique<HashAggregate>(std::move(root_), std::move(group_by),
                                       std::move(aggs), batch_size_),
       std::move(label));
  return std::move(*this);
}

PlanBuilder PlanBuilder::Distinct() && {
  Wrap(std::make_unique<exec::Distinct>(std::move(root_), batch_size_),
       "Distinct");
  return std::move(*this);
}

PlanBuilder PlanBuilder::PointerJoin(size_t ref_column, size_t num_fields,
                                     ObjectStore* store,
                                     bool keep_unmatched) && {
  Wrap(std::make_unique<exec::PointerJoin>(std::move(root_), ref_column,
                                           num_fields, store, keep_unmatched,
                                           batch_size_),
       "PointerJoin [ref col " + std::to_string(ref_column) + "]");
  return std::move(*this);
}

PlanBuilder PlanBuilder::Assemble(const AssemblyTemplate* tmpl,
                                  ObjectStore* store, AssemblyOptions options,
                                  size_t root_column, int prebuilt_column) && {
  auto op = std::make_unique<AssemblyOperator>(std::move(root_), tmpl, store,
                                               options, root_column,
                                               prebuilt_column);
  last_assembly_ = op.get();
  std::string label = std::string("Assembly [") +
                      SchedulerKindName(options.scheduler) +
                      ", W=" + std::to_string(options.window_size) +
                      (options.use_sharing_statistics ? "" : ", no-sharing") +
                      "]";
  Wrap(std::move(op), std::move(label));
  return std::move(*this);
}

PlanBuilder PlanBuilder::HashJoin(PlanBuilder right,
                                  std::vector<ExprPtr> left_keys,
                                  std::vector<ExprPtr> right_keys) && {
  auto op = std::make_unique<exec::HashJoin>(
      std::move(root_), std::move(right.root_), std::move(left_keys),
      std::move(right_keys), batch_size_);
  WrapBinary(std::move(op), "HashJoin", std::move(right));
  return std::move(*this);
}

PlanBuilder PlanBuilder::NestedLoopJoin(PlanBuilder right,
                                        ExprPtr predicate) && {
  auto op = std::make_unique<exec::NestedLoopJoin>(
      std::move(root_), std::move(right.root_), std::move(predicate),
      batch_size_);
  WrapBinary(std::move(op), "NestedLoopJoin", std::move(right));
  return std::move(*this);
}

std::unique_ptr<Iterator> PlanBuilder::Build() && { return std::move(root_); }

std::string PlanBuilder::Explain() const {
  std::string out;
  for (const std::string& line : explain_lines_) {
    out += line;
    out += "\n";
  }
  return out;
}

std::string PlanBuilder::ExplainAnalyze() const {
  std::string out;
  for (size_t i = 0; i < explain_lines_.size(); ++i) {
    out += explain_lines_[i];
    if (i < line_profilers_.size() && line_profilers_[i] != nullptr) {
      out += "  (";
      out += line_profilers_[i]->Summary();
      out += ")";
    }
    out += "\n";
  }
  return out;
}

std::string Explain(const PlanBuilder& plan) { return plan.ExplainAnalyze(); }

}  // namespace cobra::exec
