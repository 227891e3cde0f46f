#include "spans.hpp"

#include <utility>

namespace perfbench {

std::size_t SpanLog::open(const std::string& name, long item) {
  Span s;
  s.name = name;
  s.item = item;
  s.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
  spans_.push_back(std::move(s));
  const std::size_t index = spans_.size() - 1;
  stack_.push_back(index);
  // Stamp last so the bookkeeping above stays outside the span.
  spans_[index].startNs = nowNs();
  return index;
}

void SpanLog::close(std::size_t index) {
  spans_[index].endNs = nowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double SpanLog::totalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) total += secondsBetween(s.startNs, s.endNs);
  return total;
}

void SpanLog::writeJsonArray(std::FILE* f) const {
  std::fputc('[', f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%ld,\"item\":%ld}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.startNs),
                 static_cast<unsigned long long>(s.endNs), s.parent, s.item);
  }
  std::fputs("\n]", f);
}

}  // namespace perfbench
