module Config = Analysis.Config

let analyze = Analyzer.analyze
