#include "core/elastic.hpp"

#include <algorithm>
#include <limits>

#include "common/cli.hpp"

namespace hetsgd::core {

bool ElasticPlan::parse(const std::string& spec, ElasticPlan* out,
                        std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  out->events.clear();
  std::vector<SpecEvent> items;
  if (!tokenize_spec(spec, "elastic", &items, error)) return false;
  for (const SpecEvent& item : items) {
    ElasticEvent ev;
    if (item.kind == "join") {
      ev.kind = ElasticEvent::Kind::kJoin;
    } else if (item.kind == "retire") {
      ev.kind = ElasticEvent::Kind::kRetire;
    } else {
      return fail("unknown elastic event '" + item.kind + "' (join|retire)");
    }
    for (const auto& [key, value] : item.params) {
      const std::string kv = key + "=" + value;
      std::int64_t iv = 0;
      double dv = 0.0;
      if (key == "kind") {
        if (value == "cpu") {
          ev.device = gpusim::DeviceKind::kCpu;
        } else if (value == "gpu") {
          ev.device = gpusim::DeviceKind::kGpu;
        } else {
          return fail("bad worker kind — " + kv + " (cpu|gpu)");
        }
      } else if (key == "worker") {
        if (parse_int(value, 0, std::numeric_limits<msg::WorkerId>::max(),
                      &iv) != nullptr) {
          return fail("bad worker id — " + kv);
        }
        ev.worker = static_cast<msg::WorkerId>(iv);
      } else if (key == "at") {
        if (parse_finite(value, &dv) != nullptr || dv < 0.0) {
          return fail("bad trigger time — " + kv);
        }
        ev.at_vtime = dv;
      } else if (key == "atfrac") {
        if (parse_finite(value, &dv) != nullptr || dv < 0.0) {
          return fail("bad trigger fraction — " + kv);
        }
        ev.at_fraction = dv;
      } else {
        return fail("unknown elastic parameter '" + key + "'");
      }
    }
    if (ev.kind == ElasticEvent::Kind::kRetire && ev.worker < 0) {
      return fail("retire event missing worker= — " + item.text);
    }
    if (ev.at_vtime < 0.0 && ev.at_fraction < 0.0) {
      return fail("elastic event needs at= or atfrac= — " + item.text);
    }
    out->events.push_back(ev);
  }
  return true;
}

void ElasticPlan::resolve_times(double budget_vseconds) {
  for (ElasticEvent& ev : events) {
    if (ev.at_vtime >= 0.0) continue;
    ev.at_vtime = ev.at_fraction * budget_vseconds;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ElasticEvent& a, const ElasticEvent& b) {
                     return a.at_vtime < b.at_vtime;
                   });
}

void register_elastic_flags(CliParser& cli, std::string* plan) {
  cli.add_string("elastic-plan", plan,
                 "membership changes, e.g. "
                 "'join:kind=gpu,atfrac=0.3;retire:worker=1,atfrac=0.6'");
}

}  // namespace hetsgd::core
