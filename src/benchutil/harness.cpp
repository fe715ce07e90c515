#include "asamap/benchutil/harness.hpp"

#include <algorithm>
#include <ostream>

#include "asamap/benchutil/table.hpp"

namespace asamap::benchutil {

Section& Section::set(const std::string& key, std::string json,
                      std::string shown) {
  fields_.push_back(Field{key, std::move(json), std::move(shown), false, {}});
  return *this;
}

Section& Section::child(const std::string& key, bool array) {
  if (!array || fields_.empty() || fields_.back().key != key) {
    fields_.push_back(Field{key, "", "", array, {}});
  }
  return *fields_.back().nested.emplace_back(std::make_unique<Section>());
}

void Section::add_rows(Table& t, const std::string& prefix) const {
  for (const Field& f : fields_) {
    if (!f.shown.empty()) t.add_row({prefix + f.key, f.shown});
    for (std::size_t i = 0; i < f.nested.size(); ++i) {
      std::string nested_prefix = prefix;
      nested_prefix += f.key;
      if (f.array) {
        nested_prefix += '[';
        nested_prefix += std::to_string(i);
        nested_prefix += ']';
      }
      nested_prefix += '.';
      f.nested[i]->add_rows(t, nested_prefix);
    }
  }
}

void Section::print(std::ostream& out) const {
  Table t({"Metric", "Value"});
  add_rows(t, "");
  if (t.rows() > 0) t.print(out);
}

// An empty indent writes the object on one line; otherwise nested objects
// open one member per line and arrays one element (on one line) per line.
void Section::write_members(std::ostream& out,
                            const std::string& indent) const {
  const std::string in = indent.empty() ? "" : indent + "  ";
  for (const Field& f : fields_) {
    out << (&f == &fields_.front() ? "" : in.empty() ? ", " : ",\n")
        << indent << '"' << obs::escape_json(f.key) << "\": " << f.json
        << (f.array ? "[" : "");
    for (const auto& s : f.nested) {
      const bool first = &s == &f.nested.front();
      const bool open = !f.array && !in.empty();
      if (f.array) {
        out << (first ? "" : ",")
            << (in.empty() ? std::string(first ? "" : " ") : "\n" + in);
      }
      out << '{' << (open ? "\n" : "");
      s->write_members(out, open ? in : "");
      out << (open ? "\n" + indent : "") << '}';
    }
    if (f.array) out << (in.empty() ? "" : "\n" + indent) << ']';
  }
}

void Section::write_document(std::ostream& out,
                             const obs::BenchEnvelope& env) const {
  out << "{\n";
  obs::write_envelope_fields(out, env);
  write_members(out, "  ");
  out << "\n}\n";
}

Interleaved interleave(int reps,
                       const std::vector<std::function<double()>>& sides) {
  const std::size_t k = sides.size();
  Interleaved out{std::vector<double>(k, HUGE_VAL), std::vector<double>(k)};
  std::vector<double> hi(k, 0.0);
  for (std::size_t r = 0; r < static_cast<std::size_t>(std::max(reps, 1));
       ++r) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t s = (r + i) % k;
      const double x = sides[s]();
      out.best[s] = std::min(out.best[s], x);
      hi[s] = std::max(hi[s], x);
    }
  }
  for (std::size_t s = 0; s < k; ++s) {
    out.spread[s] = out.best[s] > 0.0 ? hi[s] / out.best[s] - 1.0 : 0.0;
    out.noise_floor = std::max(out.noise_floor, out.spread[s]);
  }
  return out;
}

void run_phases(const std::vector<Phase>& phases, Section& root,
                std::ostream& out) {
  for (const Phase& p : phases) {
    if (!p.on) continue;
    if (!p.name.empty()) banner(out, "phase: " + p.name);
    Section& s = p.name.empty() ? root : root.child(p.name);
    p.run(s);
    s.print(out);
  }
}

}  // namespace asamap::benchutil
