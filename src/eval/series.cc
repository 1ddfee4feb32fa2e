#include "eval/series.h"

#include <algorithm>

#include "common/csv.h"
#include "common/io.h"
#include "common/string_util.h"

namespace tdac {

FigureSeries::FigureSeries(std::string name, std::string x_label,
                           std::string y_label)
    : name_(std::move(name)),
      x_label_(std::move(x_label)),
      y_label_(std::move(y_label)) {}

void FigureSeries::Add(const std::string& series, const std::string& x,
                       double y) {
  points_.push_back({series, x, y});
}

std::string FigureSeries::ToCsv() const {
  // Distinct series and x values, in insertion order.
  std::vector<std::string> series_names;
  std::vector<std::string> xs;
  for (const Point& p : points_) {
    if (std::find(series_names.begin(), series_names.end(), p.series) ==
        series_names.end()) {
      series_names.push_back(p.series);
    }
    if (std::find(xs.begin(), xs.end(), p.x) == xs.end()) {
      xs.push_back(p.x);
    }
  }
  CsvWriter w;
  std::vector<std::string> header{x_label_};
  header.insert(header.end(), series_names.begin(), series_names.end());
  w.WriteRow(std::vector<std::string_view>(header.begin(), header.end()));
  for (const std::string& x : xs) {
    std::vector<std::string> row{x};
    for (const std::string& s : series_names) {
      std::string cell;
      for (const Point& p : points_) {
        if (p.x == x && p.series == s) cell = FormatDouble(p.y, 4);
      }
      row.push_back(cell);
    }
    w.WriteRow(std::vector<std::string_view>(row.begin(), row.end()));
  }
  return w.contents();
}

std::string FigureSeries::ToGnuplot(const std::string& csv_filename) const {
  size_t num_series = 0;
  {
    std::vector<std::string> seen;
    for (const Point& p : points_) {
      if (std::find(seen.begin(), seen.end(), p.series) == seen.end()) {
        seen.push_back(p.series);
      }
    }
    num_series = seen.size();
  }
  std::string gp;
  gp += "# gnuplot script for " + name_ + "\n";
  gp += "set datafile separator ','\n";
  gp += "set style data histograms\n";
  gp += "set style histogram clustered gap 1\n";
  gp += "set style fill solid 0.8 border -1\n";
  gp += "set key outside top center horizontal\n";
  gp += "set ylabel '" + y_label_ + "'\n";
  gp += "set xlabel '" + x_label_ + "'\n";
  gp += "set yrange [0:1.05]\n";
  gp += "set term pngcairo size 900,480\n";
  gp += "set output '" + name_ + ".png'\n";
  gp += "plot ";
  for (size_t s = 0; s < num_series; ++s) {
    if (s > 0) gp += ", \\\n     ";
    gp += "'" + csv_filename + "' using " + std::to_string(s + 2) +
          ":xtic(1) title columnheader(" + std::to_string(s + 2) + ")";
  }
  gp += "\n";
  return gp;
}

Status FigureSeries::WriteTo(const std::string& dir) const {
  const std::string csv_name = name_ + ".csv";
  TDAC_RETURN_NOT_OK(AtomicWriteFile(dir + "/" + csv_name, ToCsv()));
  return AtomicWriteFile(dir + "/" + name_ + ".gp", ToGnuplot(csv_name));
}

}  // namespace tdac
