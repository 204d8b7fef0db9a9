#include "obs/time_series.h"

#include <cstdio>

#include "obs/json.h"
#include "sim/check.h"

namespace spiffi::obs {

void TimeSeries::AddChannel(const std::string& name, bool counter,
                            SampleFn fn) {
  SPIFFI_CHECK(!name.empty());
  SPIFFI_CHECK(fn != nullptr);
  // The column schema is frozen by the first sample; registering later
  // would leave earlier rows short.
  SPIFFI_CHECK(total_samples_ == 0);
  for (const Channel& channel : channels_) {
    SPIFFI_CHECK(channel.name != name);
  }
  Channel channel;
  channel.name = name;
  channel.counter = counter;
  channel.fn = std::move(fn);
  channels_.push_back(std::move(channel));
  if (counter) {
    columns_.push_back(name + "_total");
    columns_.push_back(name + "_delta");
  } else {
    columns_.push_back(name);
  }
}

void TimeSeries::AddGauge(const std::string& name, SampleFn fn) {
  AddChannel(name, /*counter=*/false, std::move(fn));
}

void TimeSeries::AddCounter(const std::string& name, SampleFn fn) {
  AddChannel(name, /*counter=*/true, std::move(fn));
}

void TimeSeries::Sample(double now) {
  Row row;
  row.time = now;
  row.values.reserve(columns_.size());
  for (Channel& channel : channels_) {
    double value = channel.fn();
    if (channel.counter) {
      row.values.push_back(value);  // <name>_total
      // A total falling below the previous reading means the component
      // was reset (the measurement window opened); re-base the delta on
      // the new total rather than emitting a negative spike.
      double delta =
          value >= channel.last_total ? value - channel.last_total : value;
      row.values.push_back(delta);  // <name>_delta
      channel.last_total = value;
    } else {
      row.values.push_back(value);
    }
  }
  ++total_samples_;
  if (stream_ != nullptr) WriteRowJsonl(*stream_, row);
  rows_.push_back(std::move(row));
  TrimToRetention();
}

void TimeSeries::TrimToRetention() {
  if (retention_ == 0) return;
  while (rows_.size() > retention_) rows_.pop_front();
}

std::size_t TimeSeries::ColumnIndex(const std::string& column_name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == column_name) return i;
  }
  std::fprintf(stderr, "unknown telemetry column: %s\n",
               column_name.c_str());
  SPIFFI_CHECK(false);
  return 0;
}

void TimeSeries::WriteRowJsonl(std::ostream& out, const Row& row) const {
  out << "{\"t\":";
  WriteJsonNumber(out, row.time);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out << ",\"" << columns_[c] << "\":";
    WriteJsonNumber(out, row.values[c]);
  }
  out << "}\n";
}

void TimeSeries::WriteJsonl(std::ostream& out) const {
  for (const Row& row : rows_) WriteRowJsonl(out, row);
}

void TimeSeries::WriteCsv(std::ostream& out) const {
  out << "time";
  for (const std::string& column : columns_) out << ',' << column;
  out << '\n';
  for (const Row& row : rows_) {
    WriteJsonNumber(out, row.time);
    for (double value : row.values) {
      out << ',';
      WriteJsonNumber(out, value);
    }
    out << '\n';
  }
}

}  // namespace spiffi::obs
